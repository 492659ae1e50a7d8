"""The Hive-class connector: metastore-backed, S3-gateway-speaking.

The paper's no-pushdown baseline: the PageSourceProvider fetches the
Parcel footer then the column chunks over ranged GETs and decodes
everything on the compute node with
:func:`~repro.formats.reader.decode_row_group`, the decoder
:class:`~repro.formats.ParcelReader` uses.  With ``prune_columns=False``
it fetches the footer and *every* column chunk over those ranged GETs,
reproducing the paper's "entire files are often transferred" baseline.
Filters, aggregation and top-N all stay on the compute side — the Hive
connector's ceiling (paper Section 2.4).

Every gateway call retries through
:func:`~repro.rpc.retry.retrying_call` under the connector's
``gateway_policy`` (see :class:`~repro.engine.spi.Connector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Generator, List

from repro.arrowsim.record_batch import RecordBatch
from repro.engine.cluster import Cluster
from repro.engine.stages import STAGE_TRANSFER
from repro.engine.gateway import (
    S3Gateway,
    encode_ranges_request,
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
from repro.formats.reader import decode_row_group, footer_length_from_tail, meta_from_tail
from repro.metastore.catalog import HiveMetastore
from repro.plan.nodes import PlanNode, TableScanNode
from repro.rpc.retry import RetryPolicy, retrying_call
from repro.trace import Span

__all__ = ["HiveConnector", "HiveTableHandle"]


@dataclass
class HiveTableHandle(ConnectorTableHandle):
    """Scan state: the projected columns."""

    columns: List[str] = field(default_factory=list)


class _HiveOptimizer(ConnectorPlanOptimizer):
    def __init__(self, connector: "HiveConnector") -> None:
        self.connector = connector

    def optimize(self, plan: PlanNode, span: Span) -> PlanNode:
        return self._rewrite(plan)

    def _rewrite(self, node: PlanNode) -> PlanNode:
        if isinstance(node, TableScanNode):
            return self._rewrite_scan(node)
        source = getattr(node, "source", None)
        if source is not None:
            return node.with_source(self._rewrite(source))
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
        prune_columns: bool = True,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(retry_policy)
        self.cluster = cluster
        self.metastore = metastore
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
        """Column pruning is the only planning input of this connector."""
        return ("hive", self.prune_columns)

    def get_splits(self, handle: HiveTableHandle) -> List[ConnectorSplit]:
        node_count = len(self.cluster.storage_nodes)
        return [
            ConnectorSplit(
                split_id=i, keys=(key,), node_index=place_key(key, node_count)
            )
            for i, key in enumerate(handle.descriptor.files)
        ]

    def _gateway_call(self, method: str, request: bytes, span: Span) -> Generator:
        """One S3-gateway RPC, retried under ``gateway_policy``."""
        return retrying_call(
            self.cluster.s3_client, method, request, self.gateway_policy, parent=span
        )

    def page_source(
        self,
        handle: HiveTableHandle,
        split: ConnectorSplit,
        trace: Span,
    ) -> Generator:
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
