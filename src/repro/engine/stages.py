"""Stage bodies: the DES generators the lowered stage graph runs.

:mod:`repro.engine.lowering` decides the *shape* of a query (which
stages, which edges); this module is what each stage *does* on the
simulated cluster — split fan-out through scan drivers, the exchange
shuffle, parallel hash-join tasks, the aggregate/merge tail — and how
its time is attributed.

Stage attribution matches Table 3's rows: ``logical_plan_analysis``
(connector plan traversal), ``substrait_generation`` (charged by the OCS
connector's page source), ``pushdown_and_transfer`` (storage round trip
+ page materialization), ``presto_execution`` (post-scan operators),
``exchange`` (worker-to-worker shuffle) and ``others`` (coordination
fixed costs + scheduling).  Every attributed interval is a
``stage``-tagged span (``tracer.span(..., stage=...)``); the spans are the
only stage ledger, and :func:`repro.trace.stage_totals` turns them into
``QueryResult.stage_seconds``.  Spans add no simulated cost.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Schema
from repro.engine.cluster import Cluster
from repro.engine.costing import presto_pipeline_cycles
from repro.engine.dag import StageContext
from repro.engine.lowering import Branch, StageBody
from repro.engine.physical import PhysicalPlan
from repro.engine.scheduler import SchedulerSpec, run_splits
from repro.engine.spi import Connector, ConnectorSplit, PageSourceResult
from repro.exchange.filters import build_dynamic_filter
from repro.exchange.partition import hash_partition
from repro.exec.kernels import fuse_operators
from repro.exec.operators import (
    HashAggregationOperator,
    HashJoinOperator,
    Operator,
    run_operators,
)
from repro.plan.nodes import JoinNode
from repro.rpc.retry import RetryPolicy
from repro.sim.kernel import AllOf, Event, Process
from repro.trace import Span

__all__ = [
    "STAGE_ANALYSIS",
    "STAGE_EXCHANGE",
    "STAGE_EXECUTION",
    "STAGE_OTHERS",
    "STAGE_SUBSTRAIT",
    "STAGE_TRANSFER",
    "StageBodies",
]

STAGE_ANALYSIS = "logical_plan_analysis"
STAGE_SUBSTRAIT = "substrait_generation"
STAGE_TRANSFER = "pushdown_and_transfer"
STAGE_EXECUTION = "presto_execution"
STAGE_EXCHANGE = "exchange"
STAGE_OTHERS = "others"


class StageBodies:
    """Builds the generator bodies for one coordinator's stages."""

    def __init__(self, cluster: Cluster, scheduler_spec: SchedulerSpec) -> None:
        self.cluster = cluster
        self.scheduler_spec = scheduler_spec

    def run_pipeline(
        self,
        ctx: StageContext,
        name: str,
        batches: Sequence[RecordBatch],
        operators: Sequence[Operator],
        attributes: Optional[Dict[str, object]] = None,
        always_charge: bool = False,
    ) -> Generator[Event, Any, List[RecordBatch]]:
        """Run a stage-level operator pipeline inside one execution window.

        Filter/Project runs execute as fused kernels (every compute-side
        pipeline goes through :func:`fuse_operators`).  Real work first, then the cost charge for the rows the operators
        actually saw.  A zero-cycle charge is skipped unless
        ``always_charge`` (the merge stage always takes its turn on the
        compute cores, even over an empty input).
        """
        cluster = self.cluster
        ops = fuse_operators(operators)
        with cluster.tracer.span(
            name, parent=ctx.span, stage=STAGE_EXECUTION, attributes=attributes
        ):
            out = run_operators(batches, ops)
            cycles = presto_pipeline_cycles(ops, cluster.costs)
            if cycles or always_charge:
                yield cluster.compute.execute_spread(cycles, name=name)
        return out

    # -- scan stages -----------------------------------------------------------

    def scan(
        self,
        connector: Connector,
        branch: Branch,
        finish: bool,
        after_scan: Optional[Callable[..., None]] = None,
    ) -> StageBody:
        """The scan-stage body: split fan-out + branch final operators.

        ``finish`` runs the branch plan's final operators (the
        OutputNode projection of a join branch) inside the stage; the
        single-table scan leaves its final operators to the
        aggregate/merge tail instead.  ``after_scan`` sees every split's
        post-operator batches (the split-cache fill hook).
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            outs = yield from self.scan_splits(ctx, connector, branch, branch.splits)
            if after_scan is not None:
                after_scan(ctx, outs)
            batches = [b for out in outs for b in out]
            if finish:
                batches = yield from self.run_pipeline(
                    ctx, "scan-final", batches, branch.physical.final_operators()
                )
            return batches

        return run

    def materialized(self, branch: Branch, finish: bool) -> StageBody:
        """Scan a rewriter-materialized CTE's stored batches.

        The branch plan's operators (split + final when ``finish``) run
        locally over the handle's batches — there is no storage round
        trip, no splits, and nothing to push down.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            operators = branch.physical.split_operators()
            if finish:
                operators += branch.physical.final_operators()
            return (
                yield from self.run_pipeline(
                    ctx, "materialized-scan", list(branch.handle.batches),
                    operators, attributes={"table": branch.table},
                )
            )

        return run

    def scan_splits(
        self,
        ctx: StageContext,
        connector: Connector,
        branch: Branch,
        splits: List[ConnectorSplit],
    ) -> Generator[Event, Any, List[List[RecordBatch]]]:
        """Fan ``splits`` out through scan drivers; returns per-split outs."""
        sim = self.cluster.sim
        speculative = (
            type(connector).speculative_page_source
            is not Connector.speculative_page_source
        )
        # Stamped by each split when it acquires a scan driver, so
        # the scheduler's straggler clock measures service time, not
        # driver-queue wait.
        service_starts: List[Optional[float]] = [None] * len(splits)

        def launch_primary(i: int) -> Process:
            def note_start(now: float) -> None:
                service_starts[i] = now

            return sim.process(
                self.run_split(ctx, connector, branch, splits[i], note_start),
                name=f"split-{splits[i].split_id}",
            )

        def launch_backup(i: int) -> Optional[Process]:
            if not speculative:
                return None
            return sim.process(
                self.run_split(ctx, connector, branch, splits[i], speculative=True),
                name=f"split-{splits[i].split_id}:speculative",
            )

        return (
            yield from run_splits(
                ctx, self.scheduler_spec, splits, launch_primary, launch_backup,
                service_starts=service_starts,
            )
        )

    def run_split(
        self,
        ctx: StageContext,
        connector: Connector,
        branch: Branch,
        split: ConnectorSplit,
        on_service_start: Optional[Callable[[float], None]] = None,
        speculative: bool = False,
    ) -> Generator[Event, Any, List[RecordBatch]]:
        """One split attempt: acquire a scan driver, fetch, run operators.

        A ``speculative`` backup reads through the connector's
        alternative page source and runs on spare driver capacity: the
        whole point is to route around a stuck primary, so it must not
        queue behind the very driver slot that primary occupies.
        """
        cluster = self.cluster
        split_span = cluster.tracer.start(
            f"split-{split.split_id}" + (":speculative" if speculative else ""),
            parent=ctx.span,
            attributes={"split": split.split_id, "node": split.node_index},
        )
        factory = (
            connector.speculative_page_source if speculative else connector.page_source
        )
        try:
            with ExitStack() as held:
                if not speculative:
                    yield held.enter_context(
                        cluster.scan_drivers.request(owner=ctx.query_id)
                    )
                    if on_service_start is not None:
                        on_service_start(cluster.sim.now)
                out = yield from self._split_body(
                    ctx, branch, split, split_span, factory
                )
        finally:
            cluster.tracer.end(split_span)
        return out

    def _split_body(
        self,
        ctx: StageContext,
        branch: Branch,
        split: ConnectorSplit,
        split_span: Span,
        factory: Callable[..., Any],
    ) -> Generator[Event, Any, List[RecordBatch]]:
        cluster = self.cluster
        tracer = cluster.tracer
        # Data acquisition: storage round trip + page materialization.
        # Concurrent splits each open transfer windows; stage totals union
        # overlapping windows so wall-clock is charged once, not once per
        # split.  The page source tags its own spans (the OCS one splits
        # IR generation out as the substrait stage), so only the ingest
        # tail is tagged here.
        source: PageSourceResult = yield cluster.sim.process(
            factory(branch.handle, split, trace=split_span),
            name=f"page-source-{split.split_id}",
        )
        with tracer.span(
            "ingest", parent=split_span, stage=STAGE_TRANSFER,
            attributes={"bytes": source.bytes_received},
        ):
            if source.ingest_cycles:
                yield cluster.compute.execute(source.ingest_cycles, name="ingest")
        split_span.add("bytes_received", source.bytes_received)

        # Split-local operators (real work + cost charge).  A split holds
        # one driver, so the charge is a plain ``execute`` — not spread
        # over the cores like the stage-level pipelines.
        with tracer.span("split-operators", parent=split_span, stage=STAGE_EXECUTION):
            split_ops = fuse_operators(branch.physical.split_operators())
            out = run_operators(source.batches, split_ops)
            cycles = presto_pipeline_cycles(split_ops, cluster.costs)
            if cycles:
                yield cluster.compute.execute(cycles, name="split-ops")
        for op in split_ops:
            split_span.add(f"rows_into_{op.name}", op.rows_in)
        return out

    # -- join stages -----------------------------------------------------------

    def dynamic_filter(
        self, join: JoinNode, base: Branch, build_source: str
    ) -> StageBody:
        """Fold the finished build side's key summary into the base scan."""

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            build_batches = inputs[build_source]
            pushed = getattr(base.handle, "pushed", None)
            if pushed is not None and build_batches:
                probe_key = join.left_keys[0]
                dyn = build_dynamic_filter(list(build_batches), join.right_keys[0])
                probe_dtype = base.handle.table_schema.field(probe_key).dtype
                pushed.dynamic_filter = dyn.to_expression(probe_key, probe_dtype)
                ctx.span.add("dynamic_filter_build_rows", dyn.build_rows)
                ctx.span.add("dynamic_filter_distinct_keys", dyn.distinct_keys)
                if ctx.parent is not None:
                    ctx.parent.set("dynamic_filter_keys", dyn.distinct_keys)
            return build_batches
            yield  # pragma: no cover - marks this body as a generator

        return run

    def exchange(
        self,
        source: str,
        keys: List[str],
        workers: int,
        distribution: str,
        retry: RetryPolicy,
        side: str,
    ) -> StageBody:
        """Shuffle one side of a join through the exchange fabric.

        A fresh exchange id per invocation makes the stage restartable:
        pages from an abandoned attempt sit in a buffer nobody drains.
        Returns the per-partition :class:`DrainResult` list.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            cluster = self.cluster
            sim = cluster.sim
            fabric = cluster.exchange
            batches = inputs[source]
            exchange_id = fabric.create(workers)
            with cluster.tracer.span(
                "exchange", parent=ctx.span, stage=STAGE_EXCHANGE,
                attributes={
                    "side": side, "distribution": distribution,
                    "partitions": workers,
                },
            ) as span:
                if distribution == "broadcast":
                    # Replicate every page to every join task.
                    pages = [
                        (partition, batch)
                        for partition in range(workers)
                        for batch in batches
                    ]
                else:
                    partition_rows = sum(b.num_rows for b in batches)
                    if partition_rows:
                        yield cluster.compute.execute(
                            partition_rows
                            * cluster.costs.exchange_partition_cycles_per_row,
                            name="exchange-partition",
                        )
                    pages = [
                        (partition, part)
                        for batch in batches
                        for partition, part in enumerate(
                            hash_partition(batch, list(keys), workers)
                        )
                        if part.num_rows
                    ]
                put_procs = [
                    sim.process(
                        fabric.put(
                            cluster.exchange_client, exchange_id, partition, 0,
                            seq, [page], retry, parent=span,
                        ),
                        name=f"exchange-put-{seq}",
                    )
                    for seq, (partition, page) in enumerate(pages)
                ]
                page_bytes = 0
                if put_procs:
                    framed = yield AllOf(sim, put_procs)
                    page_bytes = sum(framed)
                parts = [fabric.drain(exchange_id, p) for p in range(workers)]
                span.set("bytes", page_bytes)
                span.set("pages", len(put_procs))
                span.add("exchange_bytes", page_bytes)
                span.add("exchange_pages", len(put_procs))
            return parts

        return run

    def join(
        self,
        join: JoinNode,
        index: int,
        workers: int,
        distribution: str,
        build_schema: Schema,
        build_source: str,
        probe_source: str,
        segment: PhysicalPlan,
    ) -> StageBody:
        """Parallel hash-join tasks for one join level."""

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            sim = self.cluster.sim
            build_parts = inputs[build_source]
            if distribution == "broadcast":
                probe_batches = inputs[probe_source]
                task_inputs = [
                    (list(build_parts[p].batches), probe_batches[p::workers],
                     build_parts[p].nbytes)
                    for p in range(workers)
                ]
            else:
                probe_parts = inputs[probe_source]
                task_inputs = [
                    (list(build_parts[p].batches), list(probe_parts[p].batches),
                     build_parts[p].nbytes + probe_parts[p].nbytes)
                    for p in range(workers)
                ]
            with self.cluster.tracer.span(
                "join-stage", parent=ctx.span, stage=STAGE_EXECUTION,
                attributes={"kind": join.kind, "tasks": workers, "level": index},
            ) as span:
                task_outs = yield AllOf(
                    sim,
                    [
                        sim.process(
                            self._join_task(
                                ctx, p, join, build_schema, build_in, probe_in,
                                nbytes, segment.split_operators, span,
                            ),
                            name=f"join-task-{p}",
                        )
                        for p, (build_in, probe_in, nbytes) in enumerate(task_inputs)
                    ],
                )
            return [b for out in task_outs for b in out]

        return run

    def _join_task(
        self,
        ctx: StageContext,
        index: int,
        join: JoinNode,
        build_schema: Schema,
        build_batches: List[RecordBatch],
        probe_batches: List[RecordBatch],
        deserialize_bytes: int,
        above_operators: Callable[[], List[Operator]],
        parent: Span,
    ) -> Generator[Event, Any, List[RecordBatch]]:
        """One join task: pay exchange deserialization, build, probe.

        The enclosing ``join-stage`` window already covers every task,
        so the task span is tagged without a window of its own.
        """
        cluster = self.cluster
        costs = cluster.costs
        with cluster.tracer.span(
            f"join-task-{index}", parent=parent, stage=STAGE_EXECUTION,
            attributes={"partition": index},
        ) as span:
            if deserialize_bytes:
                yield cluster.compute.execute(
                    deserialize_bytes * costs.arrow_deserialize_cycles_per_byte,
                    name="exchange-deserialize",
                )
            op = HashJoinOperator(
                kind=join.kind,
                left_keys=list(join.left_keys),
                right_keys=list(join.right_keys),
                right_schema=build_schema,
                right_renames=dict(join.right_renames),
            )
            for build_batch in build_batches:
                op.add_build(build_batch)
            op.finish_build()
            task_ops: List[Operator] = [op]
            task_ops.extend(fuse_operators(above_operators()))
            out = run_operators(list(probe_batches), task_ops)
            cycles = presto_pipeline_cycles(task_ops, costs)
            if cycles:
                yield cluster.compute.execute(cycles, name=f"join-task-{index}")
            span.set("build_rows", op.build_rows)
            span.set("probe_rows", op.rows_in)
            for task_op in task_ops:
                span.add(f"rows_into_{task_op.name}", task_op.rows_in)
        return out

    # -- the aggregate/merge tail ----------------------------------------------

    def aggregate(self, physical: PhysicalPlan) -> StageBody:
        """Merge-side aggregation: final operators up to the last agg."""

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            (batches,) = inputs.values()
            raw = physical.final_operators()
            return (
                yield from self.run_pipeline(
                    ctx, "aggregate-stage", batches, raw[: _aggregation_cut(raw)]
                )
            )

        return run

    def merge(self, physical: PhysicalPlan) -> StageBody:
        """The final stage: remaining operators over its input batches."""

        def run(ctx: StageContext, inputs: Dict[str, Any]) -> Generator[Event, Any, Any]:
            (batches,) = inputs.values()
            raw = physical.final_operators()
            if physical.agg_schema is not None:
                raw = raw[_aggregation_cut(raw):]
            return (
                yield from self.run_pipeline(
                    ctx, "final-stage", batches, raw, always_charge=True
                )
            )

        return run


def _aggregation_cut(ops: List[Operator]) -> int:
    """Index just past the last aggregation operator in a final
    pipeline — the aggregate/merge stage boundary.  Operator fusion
    never crosses an aggregation, so cutting before fusing changes
    neither pipeline."""
    cut = 0
    for i, op in enumerate(ops):
        if isinstance(op, HashAggregationOperator):
            cut = i + 1
    return cut
