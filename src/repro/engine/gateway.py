"""S3-class gateway: the conventional object-storage access path.

Serves the two baseline data paths of the evaluation:

* **raw ranged GETs** (``s3.get_tail`` / ``s3.get_ranges``) — the
  no-pushdown path: the compute node fetches Parcel footers and column
  chunks and does all decoding/filtering itself;
* **``s3.select``** — the S3-Select-class filter+projection pushdown,
  returning row-oriented CSV.

The gateway runs on the OCS frontend node (one storage endpoint, as in
the paper's testbed) and routes each object to the storage node that
hosts it; that node pays disk and CPU for the request.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import RpcError
from repro.exec.expressions import Expr
from repro.objectstore.s3select import S3SelectRequest, S3SelectService
from repro.objectstore.store import ObjectStore
from repro.rpc.channel import RpcService
from repro.sim.costmodel import CostParams
from repro.sim.kernel import Simulator
from repro.sim.network import Link
from repro.sim.node import SimNode
from repro.substrait.convert import expression_to_substrait, substrait_to_expression
from repro.substrait.expressions import SExpression
from repro.substrait.functions import FunctionRegistry
from repro.substrait.serde import (
    encode_expression,
    put_declarations,
    read_declarations,
    read_expression,
)
from repro.trace import SpanContext, Tracer
from repro.wire import Reader, put_str, put_varint

__all__ = ["S3Gateway", "place_key", "SelectReply"]

#: CPU cycles the storage node spends handling one GET request.
_GET_REQUEST_CYCLES = 500_000.0


def place_key(key: str, node_count: int) -> int:
    """Deterministic object placement: key -> storage node index."""
    return zlib.crc32(key.encode("utf-8")) % node_count


# -- request/reply codecs -----------------------------------------------------


def encode_tail_request(bucket: str, key: str, nbytes: int) -> bytes:
    out = bytearray()
    put_str(out, bucket)
    put_str(out, key)
    put_varint(out, nbytes)
    return bytes(out)


def decode_tail_request(buf: bytes) -> Tuple[str, str, int]:
    r = Reader(buf, RpcError)
    request = (r.text(), r.text(), r.varint())
    r.done()
    return request


def encode_ranges_request(bucket: str, key: str, ranges: Sequence[Tuple[int, int]]) -> bytes:
    out = bytearray()
    put_str(out, bucket)
    put_str(out, key)
    put_varint(out, len(ranges))
    for start, length in ranges:
        put_varint(out, start)
        put_varint(out, length)
    return bytes(out)


def decode_ranges_request(buf: bytes) -> Tuple[str, str, List[Tuple[int, int]]]:
    r = Reader(buf, RpcError)
    bucket, key = r.text(), r.text()
    ranges = [(r.varint(), r.varint()) for _ in range(r.count(2))]
    r.done()
    return bucket, key, ranges


def encode_select_request(
    bucket: str,
    key: str,
    columns: Sequence[str],
    table_columns: Sequence[str],
    predicate: Optional[Expr],
) -> bytes:
    """Select request; the predicate travels as a Substrait expression."""
    out = bytearray()
    put_str(out, bucket)
    put_str(out, key)
    put_varint(out, len(columns))
    for name in columns:
        put_str(out, name)
    put_varint(out, len(table_columns))
    for name in table_columns:
        put_str(out, name)
    if predicate is None:
        out.append(0)
        return bytes(out)
    out.append(1)
    registry = FunctionRegistry()
    sexpr = expression_to_substrait(predicate, list(table_columns), registry)
    put_declarations(out, registry)
    payload = encode_expression(sexpr)
    put_varint(out, len(payload))
    out += payload
    return bytes(out)


def decode_select_request(
    buf: bytes,
) -> Tuple[str, str, List[str], List[str], Optional[SExpression], Optional[FunctionRegistry]]:
    """Inverse of :func:`encode_select_request`, the predicate still in
    transport form (ordinals into ``table_columns``, anchors into the registry)."""
    r = Reader(buf, RpcError)
    bucket, key = r.text(), r.text()
    columns = [r.text() for _ in range(r.count(1))]
    table_columns = [r.text() for _ in range(r.count(1))]
    sexpr = registry = None
    if r.u8():
        registry = read_declarations(r)
        # The expression is its own length-prefixed frame inside this one.
        inner = Reader(r.take(r.varint()), RpcError)
        sexpr = read_expression(inner)
        inner.done()
    r.done()
    return bucket, key, columns, table_columns, sexpr, registry


@dataclass
class SelectReply:
    """CSV payload + scan accounting from one s3.select call."""

    csv_payload: bytes
    rows_scanned: int
    rows_returned: int
    stored_bytes_scanned: int
    uncompressed_bytes_scanned: int


def encode_select_reply(reply: SelectReply) -> bytes:
    out = bytearray()
    put_varint(out, len(reply.csv_payload))
    out += reply.csv_payload
    for value in (
        reply.rows_scanned,
        reply.rows_returned,
        reply.stored_bytes_scanned,
        reply.uncompressed_bytes_scanned,
    ):
        put_varint(out, value)
    return bytes(out)


def decode_select_reply(buf: bytes) -> SelectReply:
    r = Reader(buf, RpcError)
    reply = SelectReply(r.take(r.varint()), r.varint(), r.varint(), r.varint(), r.varint())
    r.done()
    return reply


# -- the gateway --------------------------------------------------------------


class S3Gateway:
    """Conventional object-store endpoint on the frontend node."""

    GET_TAIL = "s3.get_tail"
    GET_RANGES = "s3.get_ranges"
    SELECT = "s3.select"

    def __init__(
        self,
        sim: Simulator,
        frontend: SimNode,
        storage: Sequence[SimNode],
        links: Sequence[Link],
        store: ObjectStore,
        costs: CostParams,
        strict_types: bool = True,
        *,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.frontend = frontend
        self.storage = list(storage)
        self.links = list(links)
        self.store = store
        self.costs = costs
        self.tracer = tracer
        self.select_service = S3SelectService(store, strict_types=strict_types)
        self.service = RpcService(sim, frontend, "s3-gateway", costs, tracer=tracer)
        self.service.register(self.GET_TAIL, self._handle_get_tail)
        self.service.register(self.GET_RANGES, self._handle_get_ranges)
        self.service.register(self.SELECT, self._handle_select)

    def _route(self, key: str) -> Tuple[SimNode, Link]:
        index = place_key(key, len(self.storage))
        return self.storage[index], self.links[index]

    # -- handlers ------------------------------------------------------------

    def _handle_get_tail(self, payload: bytes, trace: Optional[SpanContext] = None):
        bucket, key, nbytes = decode_tail_request(payload)
        data = self.store.get_object(bucket, key)
        nbytes = min(nbytes, len(data))
        response = data[len(data) - nbytes :]
        node, link = self._route(key)
        span = self.tracer.start(
            "s3.storage:get_tail",
            parent=trace,
            attributes={"node": node.name, "bytes": len(response)},
        )
        try:
            yield link.transfer(self.frontend.name, node.name, len(payload), label="get-req")
            yield node.read_disk(len(response), name="tail")
            yield node.execute(_GET_REQUEST_CYCLES, name="get")
            yield link.transfer(node.name, self.frontend.name, len(response), label="get-tail")
        finally:
            self.tracer.end(span)
        return response

    def _handle_get_ranges(self, payload: bytes, trace: Optional[SpanContext] = None):
        bucket, key, ranges = decode_ranges_request(payload)
        response = b"".join(
            self.store.get_object_range(bucket, key, start, length)
            for start, length in ranges
        )
        node, link = self._route(key)
        span = self.tracer.start(
            "s3.storage:get_ranges",
            parent=trace,
            attributes={"node": node.name, "bytes": len(response), "ranges": len(ranges)},
        )
        try:
            yield link.transfer(self.frontend.name, node.name, len(payload), label="get-req")
            yield node.read_disk(len(response), name="ranges")
            yield node.execute(_GET_REQUEST_CYCLES, name="get")
            yield link.transfer(node.name, self.frontend.name, len(response), label="get-ranges")
        finally:
            self.tracer.end(span)
        return response

    def _handle_select(self, payload: bytes, trace: Optional[SpanContext] = None):
        bucket, key, columns, table_columns, sexpr, registry = decode_select_request(payload)
        predicate: Optional[Expr] = None
        if sexpr is not None:
            # Types resolve against the object's actual schema; the
            # converter needs names + types, so peek at the footer.
            from repro.formats.reader import ParcelReader

            reader = ParcelReader(self.store.get_object(bucket, key))
            types = [reader.schema.field(n).dtype for n in table_columns]
            predicate = substrait_to_expression(sexpr, table_columns, types, registry)

        result = self.select_service.select(
            S3SelectRequest(bucket=bucket, key=key, columns=columns, predicate=predicate)
        )
        node, link = self._route(key)
        costs = self.costs
        cpu = (
            result.stored_bytes_scanned * costs.ocs_scan_cycles_per_stored_byte
            + costs.decompress_cycles(result.codec, result.uncompressed_bytes_scanned)
            + result.rows_scanned
            * len(table_columns)
            * costs.ocs_decode_cycles_per_value
            + len(result.csv_payload) * costs.csv_serialize_cycles_per_byte
        )
        if predicate is not None:
            cpu += result.rows_scanned * predicate.node_count() * costs.vector_op_cycles_per_value
        reply = encode_select_reply(
            SelectReply(
                csv_payload=result.csv_payload,
                rows_scanned=result.rows_scanned,
                rows_returned=result.rows_returned,
                stored_bytes_scanned=result.stored_bytes_scanned,
                uncompressed_bytes_scanned=result.uncompressed_bytes_scanned,
            )
        )
        span = self.tracer.start(
            "s3.storage:select",
            parent=trace,
            attributes={
                "node": node.name,
                "rows_scanned": result.rows_scanned,
                "rows_returned": result.rows_returned,
                "bytes": result.stored_bytes_scanned,
            },
        )
        try:
            yield link.transfer(self.frontend.name, node.name, len(payload), label="select-req")
            yield node.read_disk(result.stored_bytes_scanned, name="select-scan")
            yield node.execute_spread(cpu, name="select")
            yield link.transfer(node.name, self.frontend.name, len(reply), label="select-result")
        finally:
            self.tracer.end(span)
        return reply
