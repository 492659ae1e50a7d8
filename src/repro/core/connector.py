"""The Presto-OCS connector: SPI wiring + the PageSourceProvider.

The page source is where the paper's Section 3.4 steps (3)-(5) happen:
reconstruct the pushed operators, translate to Substrait, ship over the
gRPC-class channel to the OCS frontend, and deserialize the returned
Arrow stream into engine pages for the residual operators.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.analysis.runtime import strict_verify_enabled
from repro.arrowsim.ipc import deserialize_batches
from repro.core.handle import OcsTableHandle, PushedOperators
from repro.core.monitor import PushdownEvent, PushdownMonitor
from repro.core.optimizer import OcsPlanOptimizer, PushdownPolicy
from repro.core.translator import build_pushdown_plan, pushed_plan, spliced_plan
from repro.engine.cluster import Cluster
from repro.engine.stages import STAGE_SUBSTRAIT, STAGE_TRANSFER
from repro.engine.gateway import S3Gateway, encode_ranges_request, place_key
from repro.engine.spi import Connector, ConnectorSplit, PageSourceResult
from repro.errors import RpcStatusError
from repro.metastore.catalog import HiveMetastore
from repro.ocs.embedded_engine import EmbeddedEngine
from repro.ocs.frontend import OcsFrontend, PushdownRequest, decode_response, encode_request
from repro.rpc.retry import RetryPolicy, retrying_call
from repro.substrait.plan import SubstraitPlan
from repro.substrait.validator import validate_plan
from repro.trace import Span

__all__ = ["OcsConnector"]


class OcsConnector(Connector):
    """Connector exposing OCS's extended pushdown to the engine."""

    name = "ocs"
    #: The page source waits on the storage node's pushdown engine.
    page_source_blocks = True

    def __init__(
        self,
        cluster: Cluster,
        metastore: HiveMetastore,
        policy: PushdownPolicy | None = None,
        monitor: PushdownMonitor | None = None,
        split_granularity: str = "node",
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(retry_policy)
        self.cluster = cluster
        self.metastore = metastore
        self.policy = policy if policy is not None else PushdownPolicy.all_operators()
        #: Sliding-window history; share one across runs to accumulate.
        self.monitor = monitor if monitor is not None else PushdownMonitor()
        #: "node": one pushdown request per storage node over all its
        #: files (default; matches the paper's measured data movement).
        #: "file": one request per file — Presto's classic per-split
        #: notification model; forces partial aggregation states.
        self.split_granularity = split_granularity

    # -- SPI ---------------------------------------------------------------------

    def get_table_handle(self, schema: str, table: str) -> OcsTableHandle:
        descriptor = self.metastore.get_table(schema, table)
        return OcsTableHandle(descriptor=descriptor, pushed=None)

    def plan_optimizer(self) -> OcsPlanOptimizer:
        return OcsPlanOptimizer(
            policy=self.policy,
            storage_node_count=len(self.cluster.storage_nodes),
            split_granularity=self.split_granularity,
        )

    def plan_identity(self) -> tuple:
        """Pushdown mode, policy (dynamic filters included), split
        granularity and the storage node count the aggregation phase
        depends on."""
        return (
            "ocs", self.policy, self.split_granularity,
            len(self.cluster.storage_nodes),
        )

    def end_query(self, handle: object) -> None:
        """Drop the plans built once for the ended query's splits."""
        if isinstance(handle, OcsTableHandle):
            handle.built = handle.spliced = None

    def get_splits(self, handle: OcsTableHandle) -> List[ConnectorSplit]:
        """One split per storage node ("node" granularity, default) or one
        per file ("file" granularity, Presto's classic split model)."""
        node_count = len(self.cluster.storage_nodes)
        if self.split_granularity == "file":
            return [
                ConnectorSplit(
                    split_id=i, keys=(key,), node_index=place_key(key, node_count)
                )
                for i, key in enumerate(handle.descriptor.files)
            ]
        by_node: dict[int, list[str]] = {}
        for key in handle.descriptor.files:
            by_node.setdefault(place_key(key, node_count), []).append(key)
        return [
            ConnectorSplit(split_id=i, keys=tuple(sorted(keys)), node_index=node)
            for i, (node, keys) in enumerate(sorted(by_node.items()))
        ]

    # -- PageSourceProvider ----------------------------------------------------------

    def page_source(
        self,
        handle: OcsTableHandle,
        split: ConnectorSplit,
        trace: Span,
        dynamic_filter: Optional[Callable[[Span], Generator]] = None,
    ) -> Generator:
        cluster = self.cluster
        sim = cluster.sim
        costs = cluster.costs
        tracer = cluster.tracer
        pushed: PushedOperators = handle.pushed

        # (3) Reconstruct and translate the pushed operators to IR,
        # charging the generation cost (Table 3's second row).  The page
        # source's time is split between two stage windows: the
        # substrait span covers IR generation, then the pushdown span
        # the transfer window up to this page source's return.  The plan
        # is built once per branch and query (``pushed_plan``); each split
        # still pays the generation charge.  A handle from a plan-tier hit
        # carries its IR already serialized: it ships as it is, with no
        # generation and no charge.
        plan_bytes = handle.substrait
        plan = None
        if plan_bytes is None:
            substrait_span = tracer.start(
                "substrait.generate", parent=trace, stage=STAGE_SUBSTRAIT
            )
            plan, plan_bytes = pushed_plan(handle)
            generation_cycles = (
                costs.substrait_fixed_cycles
                + plan.relation_count() * costs.substrait_cycles_per_relation
                + plan.expression_node_count() * costs.substrait_cycles_per_expression
            )
            yield cluster.compute.execute(generation_cycles, name="substrait-gen")
            substrait_span.add("substrait_plan_bytes", len(plan_bytes))
            tracer.end(substrait_span)
        if dynamic_filter is not None:
            # A probe scan generated its plan without the join's dynamic
            # filter, off the critical path; once the build publishes it,
            # the split is charged only for translating the filter's
            # relation and expression nodes into that plan.
            yield from dynamic_filter(trace)
            if plan is not None and pushed.dynamic_filter is not None:
                splice_span = tracer.start(
                    "substrait.splice", parent=trace, stage=STAGE_SUBSTRAIT
                )
                base, base_bytes = plan, plan_bytes
                plan, plan_bytes = spliced_plan(handle)
                yield cluster.compute.execute(
                    (plan.relation_count() - base.relation_count())
                    * costs.substrait_cycles_per_relation
                    + (plan.expression_node_count() - base.expression_node_count())
                    * costs.substrait_cycles_per_expression,
                    name="substrait-splice",
                )
                splice_span.add("substrait_plan_bytes", len(plan_bytes) - len(base_bytes))
                tracer.end(splice_span)
        pushdown_span = tracer.start(
            "pushdown", parent=trace, stage=STAGE_TRANSFER,
            attributes={"node": split.node_index},
        )
        if plan is None:
            pushdown_span.add("substrait_plan_bytes", len(plan_bytes))

        # (4) Dispatch to OCS over gRPC and await Arrow results, retrying
        # transient failures under the connector's retry policy.
        request = encode_request(
            PushdownRequest(
                plan_bytes=plan_bytes,
                bucket=handle.descriptor.bucket,
                keys=split.keys,
                node_index=split.node_index,
            )
        )
        t1 = sim.now
        policy = self.retry_policy
        attempts = 1

        def _note_retry(attempt: int, exc: RpcStatusError, delay: float) -> None:
            nonlocal attempts
            attempts = attempt + 1
            pushdown_span.add("pushdown_retries", 1)

        try:
            try:
                response = yield from retrying_call(
                    cluster.ocs_client, OcsFrontend.METHOD, request, policy,
                    on_retry=_note_retry, parent=pushdown_span,
                )
            except RpcStatusError as exc:
                self.monitor.record(
                    PushdownEvent(
                        table=handle.descriptor.qualified_name,
                        operators=tuple(pushed.operator_names()),
                        success=False,
                        rows_scanned=0,
                        rows_returned=0,
                        bytes_returned=0,
                        transfer_seconds=sim.now - t1,
                        estimated_rows=handle.estimated_output_rows,
                        downgraded=policy.is_retryable(exc.code),
                        attempts=getattr(exc, "attempts", attempts),
                    )
                )
                if not policy.is_retryable(exc.code):
                    # Semantic failure: re-sending or re-reading cannot help.
                    pushdown_span.record_error(exc.code)
                    raise
                # Transient failure that outlived every retry: degrade this
                # split to raw object GETs + local execution rather than
                # failing the whole query (paper Section 4's resilience goal).
                pushdown_span.add("pushdown_fallback_splits", 1)
                pushdown_span.set("downgraded", True)
                pushdown_span.set("attempts", getattr(exc, "attempts", attempts))
                if plan is None:
                    plan = build_pushdown_plan(handle.descriptor, pushed)
                result = yield from self._fallback_source(
                    handle, split, plan, parent=pushdown_span
                )
                return result
        finally:
            tracer.end(pushdown_span)
        arrow, report = decode_response(response)

        # (5) Deserialize Arrow into engine pages.
        batches = deserialize_batches(arrow)
        values = sum(b.num_rows * len(b.schema) for b in batches)
        ingest = (
            len(arrow) * costs.arrow_deserialize_cycles_per_byte
            + values * costs.arrow_ingest_cycles_per_value
        )

        pushdown_span.set("attempts", attempts)
        pushdown_span.add("ocs_rows_scanned", report.rows_scanned)
        pushdown_span.add("ocs_rows_returned", report.rows_returned)
        pushdown_span.add("ocs_stored_bytes_read", report.stored_bytes_read)
        pushdown_span.add("ocs_row_groups_pruned", report.row_groups_pruned)
        pushdown_span.add("ocs_row_groups_read", report.row_groups_read)
        if report.dynamic_rows_pruned:
            pushdown_span.add("ocs_dynamic_rows_pruned", report.dynamic_rows_pruned)
        if report.page_cache_hits:
            pushdown_span.add("ocs_page_cache_hits", report.page_cache_hits)
        self.monitor.record(
            PushdownEvent(
                table=handle.descriptor.qualified_name,
                operators=tuple(pushed.operator_names()),
                success=True,
                rows_scanned=report.rows_scanned,
                rows_returned=report.rows_returned,
                bytes_returned=len(arrow),
                transfer_seconds=sim.now - t1,
                estimated_rows=handle.estimated_output_rows,
                attempts=attempts,
                dynamic_rows_pruned=report.dynamic_rows_pruned,
            )
        )
        return PageSourceResult(
            batches=batches,
            bytes_received=len(response),
            ingest_cycles=ingest,
        )

    def speculative_page_source(
        self,
        handle: OcsTableHandle,
        split: ConnectorSplit,
        trace: Span,
        dynamic_filter: Optional[Callable[[Span], Generator]] = None,
    ) -> Generator:
        """Backup attempt for a straggling split: the raw-GET path.

        Node-granularity splits cannot re-home (each split *is* one
        storage node's data), but the degraded path sidesteps a slow
        pushdown engine entirely: fetch the objects whole through the
        conventional gateway and run the same pushed plan on the
        compute node's embedded engine.  Identical batches by
        construction — the same property the fault-tolerance fallback
        relies on — which is what lets the scheduler race it against
        the primary with first-result-wins.
        """
        if dynamic_filter is not None:
            yield from dynamic_filter(trace)
        if handle.pushed.dynamic_filter is not None:
            plan, _ = spliced_plan(handle)
        else:
            plan, _ = pushed_plan(handle)
        result = yield from self._fallback_source(
            handle, split, plan, parent=trace
        )
        trace.add("speculative_fallback_splits", 1)
        return result

    # -- graceful degradation ----------------------------------------------------

    def _fallback_source(
        self,
        handle: OcsTableHandle,
        split: ConnectorSplit,
        plan: SubstraitPlan,
        parent: Span,
    ) -> Generator:
        """Degraded path for one split: raw object GETs + local execution.

        Fetches each object whole through the conventional S3 gateway
        (pushdown is down; plain GETs still work) and runs the *same*
        Substrait plan on the compute node's embedded engine, so the
        batches are identical to what pushdown would have returned —
        the query only pays more data movement and compute-side CPU.
        """
        cluster = self.cluster
        costs = cluster.costs
        tracer = cluster.tracer
        bucket = handle.descriptor.bucket
        # Transfer-tagged: a speculative backup has no pushdown span
        # around it, and under a downgraded one the window nests.
        span = tracer.start(
            "fallback.raw_get",
            parent=parent,
            stage=STAGE_TRANSFER,
            attributes={"downgraded": True, "keys": len(split.keys)},
        )
        try:
            payload_bytes = 0
            for key in split.keys:
                size = int(cluster.store.head_object(bucket, key)["size"])
                request = encode_ranges_request(bucket, key, [(0, size)])
                blob = yield from retrying_call(
                    cluster.s3_client, S3Gateway.GET_RANGES, request,
                    self.gateway_policy, parent=span,
                )
                payload_bytes += len(blob)
            span.add("fallback_bytes_fetched", payload_bytes)

            # Execute the pushed plan locally.  Decompression, decode, and
            # operator work the storage node would have absorbed now lands on
            # the compute node, plus per-byte ingest of the raw objects.
            if strict_verify_enabled():
                # A plan run here never crosses the frontend's check.
                validate_plan(plan)
            engine = EmbeddedEngine(cluster.store, costs)
            batches, report = engine.execute(plan, bucket, list(split.keys))
            span.add("fallback_rows_scanned", report.rows_scanned)
            span.add("fallback_rows_returned", report.rows_returned)
        finally:
            tracer.end(span)
        ingest = (
            payload_bytes * costs.presto_ingest_cycles_per_byte
            + report.total_cpu_cycles
        )
        return PageSourceResult(
            batches=batches,
            bytes_received=payload_bytes,
            ingest_cycles=ingest,
        )
