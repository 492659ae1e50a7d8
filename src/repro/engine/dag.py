"""Typed stage graphs: the coordinator's unit of scheduling.

The paper's coordinator/OCS split is a staged dataflow: scans feed
exchanges feed joins feed a merge.  Earlier revisions hard-coded one
pipeline shape per query class (single-table, one join); this module
makes the dataflow a first-class value instead.  A :class:`StageGraph`
is a DAG of :class:`Stage` nodes — each a *kind* (scan, exchange,
join, aggregate, merge, cache-union), a declared output schema, typed
input edges, and a DES generator that performs the work — which the
:class:`repro.engine.scheduler.DagScheduler` runs with maximal
concurrency: any stage whose inputs have completed is launched, so
independent scan branches of an N-way join overlap instead of running
in script order.

Edges carry schemas.  A stage declares, per producer, the schema it
expects on that edge (``input_schemas``); the producer declares what it
emits (``output_schema``).  :func:`repro.analysis.verifier.
verify_stage_graph` rejects graphs whose edges disagree, alongside
cycles and orphan stages, before anything runs.

Stages communicate only through their return values: the scheduler
hands each stage a dict mapping producer stage id -> that producer's
returned value.  Nothing here touches the simulator directly — the
module is pure data + validation, so EXPLAIN can lower a query to a
graph and render it without executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.arrowsim.schema import Schema
from repro.errors import PlanError

__all__ = [
    "STAGE_KINDS",
    "Stage",
    "StageContext",
    "StageGraph",
]

#: The closed set of stage kinds the lowering emits.  ``scan`` acquires
#: table data (split drivers; a join's dynamic filter passes from its
#: build scan to its probe scan through a handshake, not an edge),
#: ``exchange`` shuffles pages through the fabric, ``join`` runs the
#: parallel hash-join tasks of one join level, ``aggregate`` runs the
#: merge-side aggregation, ``merge`` produces the query's final batch
#: (post-aggregation operators + output projection), and
#: ``cache-union`` reassembles a partially cached scan — a cached-local
#: branch served from the coordinator's split cache unioned, in
#: original split order, with the pushed-remote residual branch.
STAGE_KINDS: Tuple[str, ...] = (
    "scan",
    "exchange",
    "join",
    "aggregate",
    "merge",
    "cache-union",
)


@dataclass
class StageContext:
    """Everything a stage body needs from its scheduler.

    ``attempt`` counts restarts: 0 on the first run, incremented each
    time the scheduler restarts the stage after a restartable fault.
    ``span`` is the stage's enclosing trace span so stage bodies can
    parent their own child spans under it and count stage-level work on
    it (``span.add``).
    """

    sim: Any
    span: Any = None
    query_id: Optional[str] = None
    attempt: int = 0


@dataclass(frozen=True)
class Stage:
    """One node of the dataflow: a kind, typed edges, and a body.

    ``run`` is a DES generator function ``run(ctx, inputs)`` where
    ``inputs`` maps each producer stage id to its returned value; the
    generator's return value becomes this stage's output.  Bodies must
    be restartable: instantiate operators and other mutable state
    *inside* the generator, never capture them in the closure.
    """

    stage_id: str
    kind: str
    run: Callable[[StageContext, Dict[str, Any]], Any]
    inputs: Tuple[str, ...] = ()
    #: Schema this stage expects on each input edge, keyed by producer
    #: stage id.  Edges may be untyped (absent) when the payload is not
    #: a batch stream (e.g. an exchange's drained partitions).
    input_schemas: Mapping[str, Schema] = field(default_factory=dict)
    #: Schema of the batches this stage emits (``None`` for stages whose
    #: output is not a batch stream).
    output_schema: Optional[Schema] = None
    #: Free-form annotations surfaced by EXPLAIN (splits, distribution,
    #: table name, ...).  Never read by the scheduler.
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stage_id:
            raise PlanError("stage_id must be non-empty")
        if self.kind not in STAGE_KINDS:
            raise PlanError(
                f"unknown stage kind {self.kind!r}; expected one of {STAGE_KINDS}"
            )
        if not callable(self.run):
            raise PlanError(f"stage {self.stage_id!r} run must be callable")
        unknown = set(self.input_schemas) - set(self.inputs)
        if unknown:
            raise PlanError(
                f"stage {self.stage_id!r} declares input schemas for "
                f"non-input stages {sorted(unknown)}"
            )


class StageGraph:
    """An insertion-ordered DAG of stages keyed by stage id."""

    def __init__(self, stages: Optional[List[Stage]] = None) -> None:
        self._stages: Dict[str, Stage] = {}
        for stage in stages or []:
            self.add(stage)

    # -- construction ------------------------------------------------------

    def add(self, stage: Stage) -> Stage:
        if stage.stage_id in self._stages:
            raise PlanError(f"duplicate stage id {stage.stage_id!r}")
        self._stages[stage.stage_id] = stage
        return stage

    def annotate(self, stage_id: str, **attributes: Any) -> Stage:
        """Add ``attributes`` to a stage already in the graph, for what
        lowering learns only once later stages are added."""
        stage = self.stage(stage_id)
        stage = replace(stage, attributes={**stage.attributes, **attributes})
        self._stages[stage_id] = stage
        return stage

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, stage_id: str) -> bool:
        return stage_id in self._stages

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages.values())

    def stage(self, stage_id: str) -> Stage:
        try:
            return self._stages[stage_id]
        except KeyError:
            raise PlanError(f"no stage {stage_id!r} in graph") from None

    def sinks(self) -> List[Stage]:
        """Stages nothing consumes (the query result comes from these)."""
        consumed = {sid for s in self._stages.values() for sid in s.inputs}
        return [s for s in self._stages.values() if s.stage_id not in consumed]

    def topological(self) -> List[Stage]:
        """Stages in dependency order (Kahn); raises on cycles.

        Ties break by insertion order, so the listing is deterministic
        and reads top-down the way the lowering emitted it.
        """
        order: List[Stage] = []
        remaining = dict(self._stages)
        done: set = set()
        while remaining:
            ready = [
                s
                for s in remaining.values()
                if all(i in done for i in s.inputs if i in self._stages)
            ]
            if not ready:
                raise PlanError(
                    f"stage graph has a cycle among {sorted(remaining)}"
                )
            for stage in ready:
                order.append(stage)
                done.add(stage.stage_id)
                del remaining[stage.stage_id]
        return order

    # -- rendering ---------------------------------------------------------

    def render(self, timings: Optional[Mapping[str, float]] = None) -> str:
        """Human-readable listing, one stage per line, dependency order.

        ``timings`` (stage id -> simulated seconds) appends a per-stage
        duration column — EXPLAIN ANALYZE passes the span-derived stage
        durations here.
        """
        lines: List[str] = []
        for stage in self.topological():
            deps = ", ".join(stage.inputs) if stage.inputs else "(source)"
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(stage.attributes.items())
            )
            line = f"  {stage.stage_id:<22} [{stage.kind:<9}] <- {deps}"
            if attrs:
                line += f"  {attrs}"
            if timings is not None:
                line += f"  {timings.get(stage.stage_id, 0.0) * 1e3:10.3f} ms"
            lines.append(line)
        return "\n".join(lines)
