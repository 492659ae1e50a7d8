"""The Hive-class connector: metastore-backed, S3-gateway-speaking.

Two scan modes, matching the paper's baselines:

* ``raw`` — no pushdown: the PageSourceProvider fetches the Parcel
  footer then the column chunks over ranged GETs and decodes everything
  on the compute node with :func:`~repro.formats.reader.decode_row_group`,
  the decoder :class:`~repro.formats.ParcelReader` uses.  With
  ``prune_columns=False`` it fetches the footer and *every* column chunk
  over those ranged GETs, reproducing the paper's "entire files are often
  transferred" no-pushdown baseline.
* ``select`` — S3-Select-class pushdown: the local optimizer absorbs an
  eligible WHERE filter (and the column projection) into the table
  handle; rows come back as CSV and are re-parsed on the compute node.
  Aggregation/top-N can never be absorbed — the Hive connector's ceiling
  (paper Section 2.4).

Every gateway call in both modes retries through
:func:`~repro.rpc.retry.retrying_call` under the connector's
``gateway_policy`` (see :class:`~repro.engine.spi.Connector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Generator, List, Optional

from repro.arrowsim.dtypes import FLOAT64
from repro.arrowsim.record_batch import RecordBatch
from repro.engine.cluster import Cluster
from repro.engine.stages import STAGE_TRANSFER
from repro.engine.gateway import (
    S3Gateway,
    SelectReply,
    decode_select_reply,
    encode_ranges_request,
    encode_select_request,
    encode_tail_request,
    place_key,
)
from repro.engine.spi import (
    Connector,
    ConnectorPlanOptimizer,
    ConnectorSplit,
    ConnectorTableHandle,
    PageSourceResult,
)
from repro.errors import ConfigError
from repro.exec.expressions import Expr
from repro.formats.reader import decode_row_group, footer_length_from_tail, meta_from_tail
from repro.metastore.catalog import HiveMetastore
from repro.objectstore.s3select import SELECT_PREDICATE_NODES, csv_to_batch
from repro.plan.nodes import FilterNode, PlanNode, TableScanNode
from repro.rpc.retry import RetryPolicy, retrying_call
from repro.trace import Span

__all__ = ["HiveConnector", "HiveTableHandle"]


@dataclass
class HiveTableHandle(ConnectorTableHandle):
    """Scan state: projected columns + (select mode) an absorbed filter."""

    columns: List[str] = field(default_factory=list)
    pushed_filter: Optional[Expr] = None


class _HiveOptimizer(ConnectorPlanOptimizer):
    def __init__(self, connector: "HiveConnector") -> None:
        self.connector = connector

    def optimize(self, plan: PlanNode, span: Span) -> PlanNode:
        return self._rewrite(plan, span)

    def _rewrite(self, node: PlanNode, span: Span) -> PlanNode:
        connector = self.connector
        # Filter directly above a scan: absorb in select mode.
        if (
            connector.mode == "select"
            and isinstance(node, FilterNode)
            and isinstance(node.source, TableScanNode)
            and connector._select_compatible(node.source, node.predicate)
        ):
            scan = self._rewrite_scan(node.source)
            handle = scan.connector_handle
            scan.connector_handle = replace(handle, pushed_filter=node.predicate)
            span.add("hive_filter_pushed", 1)
            return scan
        if isinstance(node, TableScanNode):
            return self._rewrite_scan(node)
        source = getattr(node, "source", None)
        if source is not None:
            return node.with_source(self._rewrite(source, span))
        return node

    def _rewrite_scan(self, scan: TableScanNode) -> TableScanNode:
        base = scan.connector_handle
        columns = (
            list(scan.columns)
            if self.connector.prune_columns
            else scan.table_schema.names()
        )
        handle = HiveTableHandle(descriptor=base.descriptor, columns=columns)
        return TableScanNode(
            table=scan.table,
            table_schema=scan.table_schema,
            columns=list(scan.columns),
            connector_handle=handle,
        )


class HiveConnector(Connector):
    """The conventional path: one split per file through the S3 gateway."""

    name = "hive"

    def __init__(
        self,
        cluster: Cluster,
        metastore: HiveMetastore,
        mode: str = "raw",
        prune_columns: bool = True,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if mode not in ("raw", "select"):
            raise ConfigError(f"unknown hive scan mode {mode!r}")
        super().__init__(retry_policy)
        self.cluster = cluster
        self.metastore = metastore
        self.mode = mode
        self.prune_columns = prune_columns

    # -- SPI -------------------------------------------------------------------

    def get_table_handle(self, schema: str, table: str) -> HiveTableHandle:
        descriptor = self.metastore.get_table(schema, table)
        return HiveTableHandle(
            descriptor=descriptor, columns=descriptor.table_schema.names()
        )

    def plan_optimizer(self) -> ConnectorPlanOptimizer:
        return _HiveOptimizer(self)

    def plan_identity(self) -> tuple:
        """Scan mode, column pruning and S3 Select's float64 gap."""
        return (
            "hive", self.mode, self.prune_columns,
            self.cluster.s3_gateway.select_service.strict_types,
        )

    def get_splits(self, handle: HiveTableHandle) -> List[ConnectorSplit]:
        node_count = len(self.cluster.storage_nodes)
        return [
            ConnectorSplit(
                split_id=i, keys=(key,), node_index=place_key(key, node_count)
            )
            for i, key in enumerate(handle.descriptor.files)
        ]

    def page_source(
        self,
        handle: HiveTableHandle,
        split: ConnectorSplit,
        trace: Span,
    ) -> Generator:
        if self.mode == "select" and handle.pushed_filter is not None:
            return self._select_source(handle, split, trace)
        return self._raw_source(handle, split, trace)

    # -- predicate compatibility ------------------------------------------------

    def _select_compatible(self, scan: TableScanNode, predicate: Expr) -> bool:
        if not all(isinstance(n, SELECT_PREDICATE_NODES) for n in predicate.walk()):
            return False
        if self.cluster.s3_gateway.select_service.strict_types:
            schema = scan.table_schema
            referenced = predicate.column_refs() | set(scan.columns)
            if any(schema.field(n).dtype is FLOAT64 for n in referenced):
                # The real API's documented gap (paper Section 2.2).
                return False
        return True

    def _gateway_call(self, method: str, request: bytes, span: Span) -> Generator:
        """One S3-gateway RPC, retried under ``gateway_policy``."""
        return retrying_call(
            self.cluster.s3_client, method, request, self.gateway_policy, parent=span
        )

    # -- raw path ---------------------------------------------------------------

    def _raw_source(self, handle, split, trace):
        cluster = self.cluster
        costs = cluster.costs
        tracer = cluster.tracer
        (key,) = split.keys
        bucket = handle.descriptor.bucket

        # One TRANSFER-tagged span covers the whole fetch: this path has
        # no IR-generation pause, so the span mirrors the coordinator's
        # transfer window over this page source exactly.
        span = tracer.start(
            "hive.fetch_raw", parent=trace, stage=STAGE_TRANSFER,
            attributes={"key": key},
        )
        try:
            # Two ranged GETs for metadata: footer length, then the footer.
            tail8 = yield from self._gateway_call(
                S3Gateway.GET_TAIL, encode_tail_request(bucket, key, 8), span
            )
            footer_len = footer_length_from_tail(tail8)
            tail = yield from self._gateway_call(
                S3Gateway.GET_TAIL, encode_tail_request(bucket, key, footer_len + 8), span
            )
            meta = meta_from_tail(tail)

            # One ranged GET for every wanted column chunk.
            columns = [c for c in handle.columns if c in meta.schema]
            chunks = [
                rg.chunks[meta.schema.index_of(n)] for rg in meta.row_groups for n in columns
            ]
            ranges = [(chunk.offset, chunk.compressed_size) for chunk in chunks]
            payload = yield from self._gateway_call(
                S3Gateway.GET_RANGES, encode_ranges_request(bucket, key, ranges), span
            )
        finally:
            tracer.end(span)

        # Decode locally (real work), charge the compute-side scan path.
        # The reply holds the chunks back to back, in request order.
        starts = dict(zip(
            (chunk.offset for chunk in chunks),
            accumulate((chunk.compressed_size for chunk in chunks), initial=0),
        ))
        view = memoryview(payload)  # chunks reach the codec without a copy

        def stored(chunk):
            start = starts[chunk.offset]
            return view[start : start + chunk.compressed_size]

        batches: List[RecordBatch] = [
            decode_row_group(meta, rg_index, columns, stored)
            for rg_index in range(len(meta.row_groups) if columns else 0)
        ]
        # decode_row_group held each chunk to its footer's uncompressed_size.
        uncompressed_total = sum(chunk.uncompressed_size for chunk in chunks)
        values = meta.num_rows * len(columns)

        codec = handle.descriptor.codec
        ingest = (
            len(payload) * costs.presto_ingest_cycles_per_byte
            + values * costs.presto_decode_cycles_per_value
            + costs.decompress_cycles(codec, uncompressed_total)
        )
        span.add("raw_bytes_fetched", len(payload))
        return PageSourceResult(
            batches=batches,
            bytes_received=len(payload) + len(tail) + len(tail8),
            ingest_cycles=ingest,
        )

    # -- select path --------------------------------------------------------------

    def _select_source(self, handle, split, trace):
        cluster = self.cluster
        costs = cluster.costs
        tracer = cluster.tracer
        (key,) = split.keys
        descriptor = handle.descriptor
        request = encode_select_request(
            bucket=descriptor.bucket,
            key=key,
            columns=handle.columns,
            table_columns=descriptor.table_schema.names(),
            predicate=handle.pushed_filter,
        )
        span = tracer.start(
            "hive.fetch_select", parent=trace, stage=STAGE_TRANSFER,
            attributes={"key": key},
        )
        try:
            response = yield from self._gateway_call(S3Gateway.SELECT, request, span)
        finally:
            tracer.end(span)
        reply: SelectReply = decode_select_reply(response)
        schema = descriptor.table_schema.select(handle.columns)
        batch = RecordBatch.empty(schema)
        if reply.csv_payload:
            batch = csv_to_batch(reply.csv_payload, schema)
        ingest = len(reply.csv_payload) * costs.csv_parse_cycles_per_byte
        span.add("s3select_rows_scanned", reply.rows_scanned)
        span.add("s3select_rows_returned", reply.rows_returned)
        return PageSourceResult(
            batches=[batch],
            bytes_received=len(response),
            ingest_cycles=ingest,
        )
