"""The coordinator's cache tiers: everything that knows what a tier is.

One :class:`QueryCache` serves one query.  Lowering reaches it through
a single call — :meth:`QueryCache.add_branch_stages`, "the stage(s) for
this scan branch -> source id" — and the query process through
:meth:`QueryCache.plan_probe`, :meth:`QueryCache.lookup_plan` and
:meth:`QueryCache.fill_plan` around planning and
:meth:`QueryCache.lookup_result` / :meth:`QueryCache.fill_result`
around the whole graph.  Keys, pushed-plan fingerprints, version
signatures, the cached/residual/``cache-union`` stage bodies and every
cache span and charge live here; with no cache on the cluster a branch
is simply one scan stage.

The plan tier keeps a statement's :class:`PreparedPlan`: the optimized
plan and each scan branch's locally optimized plan, pushed operators,
serialized Substrait and canonical fingerprint.  A hit replaces parsing
through the local optimizer, and the Substrait generation of every
split, with one lookup charge.  Statements whose plans embed run-time
results (scalar subqueries, materialized CTEs) and plans with a
dynamically filtered branch are never stored.

When the cluster carries a split cache and some (or all) of a branch's
splits are resident, the branch lowers *hybrid*: a cached-local stage
serving the resident splits and a pushed-remote residual stage over the
rest, reassembled in original split order by a ``cache-union`` stage —
the FlexPushdownDB separable-operator shape.  A branch a dynamic join
filter prunes is never split this way: its pushed plan mutates
after lowering with bits derived from *another* table's data, which the
branch's own version signature does not cover.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Schema
from repro.cache.budget import VersionSignature
from repro.cache.manager import CacheManager, table_version_signature
from repro.engine.dag import Stage, StageContext, StageGraph
from repro.engine.lowering import (
    Branch,
    Lowered,
    MaterializedHandle,
    PreparedBranch,
    StageBody,
)
from repro.engine.session import Session
from repro.engine.spi import Connector, ConnectorSplit
from repro.engine.stages import STAGE_OTHERS, STAGE_TRANSFER, StageBodies
from repro.errors import EngineError
from repro.plan.nodes import PlanNode, format_plan
from repro.substrait.plan import SubstraitPlan
from repro.trace import Span

__all__ = ["PreparedPlan", "QueryCache"]


@dataclass(frozen=True)
class PreparedPlan:
    """One statement's planning output, as the plan tier keeps it.

    ``plan`` is the globally optimized plan (its join tree shapes the
    exchange and join stages); ``branches`` hold each scan branch after
    the connector's local optimizer.  ``counters`` are what the local
    optimizer counted, added again on a hit so that a query counts the
    same pushdown decisions whether it planned or not.
    """

    plan: PlanNode
    plan_before: str
    branches: Tuple[PreparedBranch, ...]
    counters: Tuple[Tuple[str, float], ...]


def _tables_signature(store: Any, descriptors: Any) -> VersionSignature:
    """Version signature of every table in ``descriptors``: each one's
    descriptor version and data-object write counters, once."""
    versions: Dict[Tuple[str, int], None] = {}
    for descriptor in descriptors:
        versions.update(dict.fromkeys(table_version_signature(store, descriptor)))
    return tuple(versions)


def _pushed_plan(handle: Any) -> Optional[SubstraitPlan]:
    """The Substrait plan ``handle`` pushes (``None`` for none); built
    once per query and shared with the page sources."""
    if getattr(handle, "pushed", None) is None:
        return None
    from repro.core.translator import pushed_plan

    return pushed_plan(handle)[0]


def _fingerprint(plan: Optional[SubstraitPlan]) -> str:
    """Canonical fingerprint of a pushed plan ("-" for none)."""
    if plan is None:
        return "-"
    from repro.substrait.fingerprint import fingerprint_plan

    return fingerprint_plan(plan)


def _prepare(branch: Branch) -> PreparedBranch:
    """What the plan tier keeps of a planned branch: for a pushed branch,
    a copy of its handle carrying the serialized Substrait, and the
    fingerprint lowering already derived (the branch's own handle stays
    as it is: its query generates the IR in the page source as usual).
    The bytes are the ones the page sources ship: the plan is built
    once per branch."""
    handle = branch.handle
    if getattr(handle, "pushed", None) is None:
        return PreparedBranch(branch.plan, handle, "-")
    from repro.core.translator import pushed_plan

    plan, plan_bytes = pushed_plan(handle)
    keys = branch.keys
    fingerprint = keys.pushed_fingerprint if keys is not None else _fingerprint(plan)
    return PreparedBranch(branch.plan, replace(handle, substrait=plan_bytes), fingerprint)


@dataclass
class _BranchKeys:
    """One branch's cache identity, derived once when it is lowered."""

    #: Canonical fingerprint of the pushed subplan ("-" when nothing is
    #: pushed — the residual plan signature still keys the entries).
    pushed_fingerprint: str
    #: Split-tier key per split; ``None`` when the tier is off or the
    #: branch has no splits.
    split_keys: Optional[List[Hashable]]


class QueryCache:
    """One query's view of the coordinator-tier result and split caches."""

    def __init__(self, bodies: StageBodies, tenant: str) -> None:
        self.bodies = bodies
        self.cluster = bodies.cluster
        self.cache: Optional[CacheManager] = bodies.cluster.cache
        #: Owns this query's fills for quota accounting.
        self.tenant = tenant
        #: (key, version signature) of a result-tier miss awaiting its fill.
        self._result: Optional[Tuple[Hashable, VersionSignature]] = None
        #: (key, statement text) of a plan-tier miss awaiting its fill.
        self._plan: Optional[Tuple[Hashable, str]] = None

    # -- lowering: one scan branch -> stage(s) ---------------------------------

    def add_branch_stages(
        self,
        graph: StageGraph,
        connector: Connector,
        branch: Branch,
        finish: bool,
    ) -> str:
        """Add the stage(s) realizing one scan branch; returns its source id.

        With no split cache (or no resident splits) this is the classic
        single scan stage — which then *fills* the cache as it runs.
        With resident splits the branch lowers hybrid:
        ``cached + residual -> cache-union``.  A dynamically filtered
        scan (``branch.awaits``) stays one uncached stage — see the
        module docstring.
        """
        bodies = self.bodies
        split_schema = branch.physical.split_schema
        out_schema = branch.plan.output_schema() if finish else split_schema

        def add_scan(stage_id: str, run: StageBody, schema: Schema, **attributes: Any) -> None:
            graph.add(
                Stage(
                    stage_id=stage_id,
                    kind="scan",
                    run=run,
                    output_schema=schema,
                    attributes={"table": branch.table, **attributes},
                )
            )

        if isinstance(branch.handle, MaterializedHandle):
            add_scan(
                branch.stage_id, bodies.materialized(branch, finish), out_schema,
                splits=0, source="materialized",
            )
            return branch.stage_id
        branch.keys = self._branch_keys(branch)
        probe = self._split_probe(branch) if branch.awaits is None else None
        hits, misses = probe or ([], [])
        if not hits:
            fill = (
                partial(self._fill_splits, branch, range(len(branch.splits)))
                if probe is not None
                else None
            )
            add_scan(
                branch.stage_id, bodies.scan(connector, branch, finish, fill),
                out_schema, splits=len(branch.splits),
            )
            return branch.stage_id

        suffix = branch.stage_id.split(":", 1)[1]  # "{index}:{table}"
        cached_id = f"{branch.stage_id}:cached"
        union_inputs = [cached_id]
        add_scan(
            cached_id, self._cached_splits(connector, branch, hits),
            split_schema, splits=len(hits), source="cache",
        )
        residual_id: Optional[str] = None
        if misses:
            residual_id = f"{branch.stage_id}:residual"
            add_scan(
                residual_id, self._residual_scan(connector, branch, misses),
                split_schema, splits=len(misses), source="pushdown",
            )
            union_inputs.append(residual_id)
        union_id = f"cache-union:{suffix}"
        graph.add(
            Stage(
                stage_id=union_id,
                kind="cache-union",
                run=self._cache_union(branch, cached_id, residual_id, finish),
                inputs=tuple(union_inputs),
                input_schemas={source: split_schema for source in union_inputs},
                output_schema=out_schema,
                attributes={
                    "table": branch.table,
                    "cached_splits": len(hits),
                    "residual_splits": len(misses),
                },
            )
        )
        return union_id

    # -- keys and probes -------------------------------------------------------

    def _branch_keys(self, branch: Branch) -> Optional[_BranchKeys]:
        """Fingerprint + split keys, or ``None`` when nothing can use them:
        no cache, both coordinator tiers off, or no catalog descriptor to
        version entries against."""
        cache = self.cache
        descriptor = getattr(branch.handle, "descriptor", None)
        if cache is None or descriptor is None:
            return None
        split_tier = cache.splits.budget_bytes > 0 and bool(branch.splits)
        if not split_tier and cache.results.budget_bytes <= 0:
            return None
        if branch.prepared is not None:
            fingerprint = branch.prepared.fingerprint
        else:
            fingerprint = _fingerprint(_pushed_plan(branch.handle))
        split_keys: Optional[List[Hashable]] = None
        if split_tier:
            plan_sig = hashlib.sha256(
                format_plan(branch.plan).encode("utf-8")
            ).hexdigest()
            split_keys = [
                CacheManager.split_key(branch.table, fingerprint, plan_sig, split.keys)
                for split in branch.splits
            ]
        return _BranchKeys(fingerprint, split_keys)

    def _split_probe(self, branch: Branch) -> Optional[Tuple[List[int], List[int]]]:
        """(hit, miss) split indices at the current instant; ``None`` when
        the branch is not split-cacheable.

        Pure peeks (no recency or stats mutation), so EXPLAIN can lower
        without executing.  The lowering-time probe fixes the *shape* of
        the graph; the cached stage re-checks each entry with a real
        versioned lookup at run time and falls back to the pushdown path
        for anything evicted or invalidated in between.
        """
        keys = branch.keys.split_keys if branch.keys is not None else None
        if keys is None:
            return None
        assert self.cache is not None
        resident = [self.cache.splits.entry(key) is not None for key in keys]
        return (
            [i for i, hit in enumerate(resident) if hit],
            [i for i, hit in enumerate(resident) if not hit],
        )

    def _split_versions(self, branch: Branch, split: ConnectorSplit) -> VersionSignature:
        """Version signature of everything one split's value derives from:
        the catalog descriptor plus every object the split covers."""
        return table_version_signature(
            self.cluster.store, branch.handle.descriptor, split.keys
        )

    def _result_probe(
        self, lowered: Lowered
    ) -> Optional[Tuple[Hashable, VersionSignature]]:
        """(key, version signature) for the whole-query result cache.

        The key is the canonical fingerprint of every pushed subplan
        plus the residual logical plan; the version signature covers
        every object (and catalog descriptor) any branch reads, so a
        write or stats refresh anywhere in the query's footprint turns
        the entry stale.  ``None`` when any branch lacks a catalog
        descriptor — with no way to version what the query read,
        serving a cached result could silently survive a write.
        """
        parts: List[str] = []
        for branch in lowered.branches:
            if branch.keys is None:
                return None
            parts.append(f"{branch.table}={branch.keys.pushed_fingerprint}")
        body = "\n".join(
            parts + [lowered.plan_after, ",".join(lowered.output_schema.names())]
        )
        key = CacheManager.result_key(
            hashlib.sha256(body.encode("utf-8")).hexdigest()
        )
        return key, _tables_signature(
            self.cluster.store, (b.handle.descriptor for b in lowered.branches)
        )

    # -- the plan tier, around planning ----------------------------------------

    def plan_probe(
        self, statement: str, session: Session, identity: Optional[Hashable]
    ) -> bool:
        """Key ``statement`` for the plan tier; whether a lookup follows.

        ``statement`` is the whitespace-normalised text, planned for
        ``session`` by a coordinator and connector with planning
        ``identity`` (``None``: the connector declares none, and the
        tier is skipped).  The caller charges the lookup's
        ``cache_lookup_cycles`` before :meth:`lookup_plan`.
        """
        if self.cache is None or identity is None:
            return False
        key = CacheManager.plan_key(statement, session.catalog, session.schema, identity)
        self._plan = (key, statement)
        return True

    def lookup_plan(self, connector: Connector, parent: Span) -> Optional[PreparedPlan]:
        """The prepared plan :meth:`plan_probe` keyed, or ``None``.

        A resident entry is checked against the current version
        signature of every table it scans (read through ``connector``),
        so a PUT to any of their objects, a statistics refresh or a
        dropped table turns it stale.  Pure bookkeeping: no simulated
        time.
        """
        if self._plan is None:
            return None
        assert self.cache is not None
        tier = self.cache.plans
        key = self._plan[0]
        cluster = self.cluster
        with cluster.tracer.span(
            "cache-lookup", parent=parent, attributes={"tier": "plan"}
        ) as lookup:
            resident = tier.entry(key)
            versions = None
            if resident is not None:
                try:
                    versions = _tables_signature(cluster.store, [
                        connector.get_table_handle(
                            b.handle.descriptor.schema_name, b.handle.descriptor.table_name
                        ).descriptor
                        for b in resident.value.branches
                    ])
                except EngineError:
                    versions = ()  # a table left the catalog
            entry = tier.get(key, tenant=self.tenant, versions=versions)
            lookup.set("hit", entry is not None)
            if entry is not None:
                lookup.add("plan_cache_hits", 1)
        return entry

    def fill_plan(
        self, plan: PlanNode, plan_before: str, lowered: Lowered, local: Span, root: Span
    ) -> None:
        """Offer a miss's planning output to the tier :meth:`lookup_plan` missed.

        ``local`` is the local-optimization span whose counters the entry
        keeps.  A plan whose base scan a dynamic filter prunes is not
        stored: its pushed plan is completed at run time.  Pure
        bookkeeping: no simulated time.
        """
        if self._plan is None or lowered.handshake is not None:
            return
        assert self.cache is not None
        key, statement = self._plan
        branches = tuple(_prepare(branch) for branch in lowered.branches)
        entry = PreparedPlan(
            plan=plan,
            plan_before=plan_before,
            branches=branches,
            counters=tuple(sorted((local.counters or {}).items())),
        )
        nbytes = len(statement) + len(plan_before) + len(lowered.plan_after) + sum(
            len(getattr(b.handle, "substrait", None) or b"") for b in branches
        )
        with self.cluster.tracer.span(
            "cache-fill", parent=root, attributes={"tier": "plan"}
        ) as span:
            filled = self.cache.plans.put(
                key, entry, nbytes=nbytes, tenant=self.tenant,
                versions=_tables_signature(
                    self.cluster.store, (b.handle.descriptor for b in branches)
                ),
                cost=float(
                    lowered.analysis_nodes
                    * self.cluster.costs.plan_analysis_cycles_per_node
                ),
            )
            span.set("bytes", nbytes)
            span.set("accepted", filled)

    # -- the result tier, around the whole graph -------------------------------

    def lookup_result(
        self,
        lowered: Lowered,
        root: Span,
    ):
        """DES generator: try the result tier; returns the hit or ``None``.

        A hit is charged its lookup and its serve in one compute request.
        A miss charges nothing here: the caller adds
        :attr:`unpaid_lookup_cycles` to its next request, since each extra
        request is one more same-instant hop, and each such hop reverses
        two same-instant queries under the LIFO tie-break.

        Also feeds the per-table lookup ledger the adaptive controller
        reads.  The split peeks are pure, so recording them here (run
        path only) keeps EXPLAIN side-effect free.
        """
        cache = self.cache
        if cache is None:
            return None
        for branch in lowered.branches:
            probe = self._split_probe(branch)
            if probe is not None:
                hits, misses = probe
                cache.record_table_lookup(
                    branch.table, hits=len(hits), misses=len(misses)
                )
        if cache.results.budget_bytes <= 0:
            return None
        self._result = self._result_probe(lowered)
        if self._result is None:
            return None
        key, versions = self._result
        cluster = self.cluster
        costs = cluster.costs
        with cluster.tracer.span(
            "cache-lookup", parent=root, stage=STAGE_OTHERS,
            attributes={"tier": "result"},
        ) as lookup:
            hit = cache.results.get(key, tenant=self.tenant, versions=versions)
            lookup.set("hit", hit is not None)
            if hit is not None:
                yield cluster.compute.execute(
                    costs.cache_lookup_cycles
                    + hit.nbytes * costs.cache_serve_cycles_per_byte,
                    name="cache-serve",
                )
        if hit is not None:
            root.add("result_cache_hits", 1)
        for branch in lowered.branches:
            cache.record_table_lookup(
                branch.table, hits=int(hit is not None), misses=int(hit is None)
            )
        return hit

    @property
    def unpaid_lookup_cycles(self) -> float:
        """The cycles of a result-tier lookup that missed (0 without one)."""
        if self._result is None:
            return 0.0
        return self.cluster.costs.cache_lookup_cycles

    def fill_result(
        self, batch: RecordBatch, elapsed: float, root: Span
    ) -> None:
        """Offer a computed result to the tier :meth:`lookup_result` missed."""
        if self._result is None:
            return
        assert self.cache is not None
        key, versions = self._result
        with self.cluster.tracer.span(
            "cache-fill", parent=root, attributes={"tier": "result"}
        ) as span:
            filled = self.cache.results.put(
                key, batch, nbytes=batch.nbytes, tenant=self.tenant,
                versions=versions, cost=float(elapsed),
            )
            span.set("bytes", batch.nbytes)
            span.set("accepted", filled)
        if filled:
            root.add("result_cache_fills", 1)

    # -- the split tier: stage bodies ------------------------------------------

    def _cached_splits(
        self, connector: Connector, branch: Branch, hits: List[int]
    ) -> StageBody:
        """Serve the lowering-time-resident splits from the split cache.

        Each hit is re-checked against the objects' *current* version
        counters; an entry evicted or invalidated between lowering and
        launch falls back to the normal pushdown path for that split.
        Returns ``{original split index: batches}``.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            cluster = self.cluster
            cache = self.cache
            costs = cluster.costs
            out: Dict[int, List[RecordBatch]] = {}
            fallback: List[int] = []
            served = 0
            with cluster.tracer.span(
                "cache-lookup", parent=ctx.span, stage=STAGE_TRANSFER,
                attributes={"tier": "split", "splits": len(hits)},
            ):
                for index in hits:
                    value = cache.splits.get(
                        branch.keys.split_keys[index], tenant=self.tenant,
                        versions=self._split_versions(branch, branch.splits[index]),
                    )
                    if value is None:
                        fallback.append(index)
                        continue
                    out[index] = list(value)
                    served += sum(b.nbytes for b in value)
                cycles = (
                    len(hits) * costs.cache_lookup_cycles
                    + served * costs.cache_serve_cycles_per_byte
                )
                if cycles:
                    yield cluster.compute.execute(cycles, name="cache-serve")
            if out:
                ctx.span.add("split_cache_hits", len(out))
                ctx.span.add("split_cache_bytes_served", served)
            for index in fallback:
                out[index] = yield from self.bodies.run_split(
                    ctx, connector, branch, branch.splits[index]
                )
            return out

        return run

    def _residual_scan(
        self, connector: Connector, branch: Branch, misses: List[int]
    ) -> StageBody:
        """Push the non-resident splits to storage and fill the cache.

        Returns ``{original split index: batches}`` so the cache-union
        stage can restore the branch's original split order.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            splits = [branch.splits[i] for i in misses]
            outs = yield from self.bodies.scan_splits(ctx, connector, branch, splits)
            self._fill_splits(branch, misses, ctx, outs)
            return dict(zip(misses, outs))

        return run

    def _cache_union(
        self,
        branch: Branch,
        cached_id: str,
        residual_id: Optional[str],
        finish: bool,
    ) -> StageBody:
        """Reassemble a partially cached scan in original split order.

        Both inputs map original split index -> batches; the union
        concatenates over sorted indices, so the stream is byte-identical
        to the unsplit scan's regardless of which fraction was cached.
        """

        def run(ctx: StageContext, inputs: Dict[str, Any]):
            merged: Dict[int, List[RecordBatch]] = dict(inputs[cached_id])
            if residual_id is not None:
                merged.update(inputs[residual_id])
            batches = [b for index in sorted(merged) for b in merged[index]]
            if finish:
                batches = yield from self.bodies.run_pipeline(
                    ctx, "cache-union-final", batches,
                    branch.physical.final_operators(),
                )
            self.bodies.publish(ctx, branch, batches)
            return batches

        return run

    def _fill_splits(
        self,
        branch: Branch,
        indices: Sequence[int],
        ctx: StageContext,
        outs: List[List[RecordBatch]],
    ) -> None:
        """Offer each scanned split's post-operator batches to the cache.

        Fills are best-effort: a refusal (budget or another tenant's
        reservation floor) is counted by the tier, never raised.  Pure
        bookkeeping — no simulated time passes.
        """
        cache = self.cache
        assert cache is not None
        filled = 0
        filled_bytes = 0
        with self.cluster.tracer.span(
            "cache-fill", parent=ctx.span, attributes={"tier": "split"}
        ) as span:
            for index, batches in zip(indices, outs):
                nbytes = sum(b.nbytes for b in batches)
                ok = cache.splits.put(
                    branch.keys.split_keys[index],
                    list(batches),
                    nbytes=nbytes,
                    tenant=self.tenant,
                    versions=self._split_versions(branch, branch.splits[index]),
                    cost=float(sum(b.num_rows for b in batches)),
                )
                if ok:
                    filled += 1
                    filled_bytes += nbytes
            span.set("bytes", filled_bytes)
        if filled:
            ctx.span.add("split_cache_fills", filled)
