"""An OCS storage node: local objects + embedded engine + cost charging."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.arrowsim.ipc import serialize_batches
from repro.objectstore.store import ObjectStore
from repro.ocs.embedded_engine import EmbeddedEngine, OcsCostReport
from repro.sim.costmodel import CostParams
from repro.sim.kernel import Process, Simulator
from repro.sim.node import SimNode
from repro.substrait.plan import SubstraitPlan
from repro.trace import SpanContext, Tracer

__all__ = ["OcsStorageNode"]


class OcsStorageNode:
    """One storage node of the OCS hierarchy (paper Section 5.1).

    When wired with a ``page_cache`` (one
    :class:`~repro.cache.budget.ByteBudgetCache` tier per node), repeated
    pushed subplans over unchanged objects are served from memory: the
    hit skips the disk read and the engine's scan/compute cycles, paying
    only a per-byte serve charge.  Entries are keyed by
    ``(bucket, object keys, canonical plan fingerprint)`` and carry the
    objects' write-counter versions, so any PUT invalidates lazily on
    the next lookup.
    """

    def __init__(
        self,
        sim: Simulator,
        node: SimNode,
        store: ObjectStore,
        costs: CostParams,
        index: int = 0,
        *,
        tracer: Tracer,
        page_cache=None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.store = store
        self.costs = costs
        self.index = index
        self.tracer = tracer
        self.page_cache = page_cache
        self.engine = EmbeddedEngine(store, costs)
        self.plans_executed = 0

    def execute_plan(
        self,
        plan: SubstraitPlan,
        bucket: str,
        keys: Sequence[str],
        trace: Optional[SpanContext] = None,
    ) -> Process:
        """DES process resolving to (arrow_bytes, OcsCostReport)."""
        return self.sim.process(
            self._execute(plan, bucket, keys, trace), name=f"ocs-exec[{self.index}]"
        )

    def _cache_probe(self, plan: SubstraitPlan, bucket: str, keys: Sequence[str]):
        """(key, versions) for the page cache, or None when uncacheable.

        Plans carrying a dynamic join filter are never cached: the
        filter's bits derive from *another* table's data, which the
        key's version signature does not cover.
        """
        if self.page_cache is None:
            return None
        from repro.cache.manager import CacheManager, object_version_signature
        from repro.substrait.expressions import SBloomProbe, SInList

        def has_dynamic(expr) -> bool:
            if isinstance(expr, (SBloomProbe, SInList)):
                return True
            return any(has_dynamic(c) for c in expr.children())

        rel = plan.root
        seen = [rel]
        while seen:
            node = seen.pop()
            if any(has_dynamic(e) for e in node.expressions()):
                return None
            seen.extend(node.inputs())
        from repro.substrait.fingerprint import fingerprint_plan

        key = CacheManager.storage_key(bucket, tuple(keys), fingerprint_plan(plan))
        versions = object_version_signature(self.store, bucket, list(keys))
        return key, versions

    def _execute(
        self,
        plan: SubstraitPlan,
        bucket: str,
        keys: Sequence[str],
        trace: Optional[SpanContext] = None,
    ):
        probe = self._cache_probe(plan, bucket, keys)
        if probe is not None:
            key, versions = probe
            hit = self.page_cache.get(key, versions=versions)
            if hit is not None:
                arrow, stored_report = hit
                report: OcsCostReport = replace(
                    stored_report,
                    stored_bytes_read=0,
                    decompress_cycles=0.0,
                    scan_cycles=0.0,
                    compute_cycles=0.0,
                    rows_scanned=0,
                    row_groups_pruned=0,
                    row_groups_read=0,
                    page_cache_hits=1,
                )
                span = self.tracer.start(
                    f"ocs.cache-hit[{self.index}]",
                    parent=trace,
                    attributes={"node": self.node.name, "bytes": len(arrow)},
                )
                try:
                    yield self.node.execute_spread(
                        self.costs.cache_lookup_cycles
                        + len(arrow) * self.costs.ocs_cache_serve_cycles_per_byte
                    )
                finally:
                    self.tracer.end(span)
                return arrow, report

        # Real execution first (instantaneous in simulated time)...
        batches, report = self.engine.execute(plan, bucket, keys)
        arrow = serialize_batches(batches)
        # ...then charge what it would have cost on this hardware.  The
        # scan span covers the disk read plus the single fused CPU charge
        # (the Arrow-encode cycles are folded into that charge, so the
        # encode span below is a zero-width marker — splitting the CPU
        # charge in two would change event ordering and hence timings).
        span = self.tracer.start(
            f"ocs.scan[{self.index}]",
            parent=trace,
            attributes={
                "node": self.node.name,
                "rows_scanned": report.rows_scanned,
                "rows_returned": report.rows_returned,
                "bytes": report.stored_bytes_read,
            },
        )
        try:
            yield self.node.read_disk(report.stored_bytes_read, name="scan")
            cpu = (
                report.total_cpu_cycles
                + len(arrow) * self.costs.arrow_serialize_cycles_per_byte
            )
            yield self.node.execute_spread(cpu)
        finally:
            self.tracer.end(span)
        encode = self.tracer.start(
            f"ocs.encode[{self.index}]", parent=span, attributes={"bytes": len(arrow)}
        )
        self.tracer.end(encode)
        self.plans_executed += 1
        if probe is not None:
            key, versions = probe
            self.page_cache.put(
                key,
                (arrow, replace(report)),
                nbytes=len(arrow),
                versions=versions,
            )
        return arrow, report
