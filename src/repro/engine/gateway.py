"""S3-class gateway: the conventional object-storage access path.

Serves the no-pushdown data path of the evaluation with raw ranged GETs
(``s3.get_tail`` / ``s3.get_ranges``): the compute node fetches Parcel
footers and column chunks and does all decoding/filtering itself.

The gateway runs on the OCS frontend node (one storage endpoint, as in
the paper's testbed) and routes each object to the storage node that
hosts it; that node pays disk and CPU for the request.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple

from repro.errors import RpcError
from repro.objectstore.store import ObjectStore
from repro.rpc.channel import RpcService
from repro.sim.costmodel import CostParams
from repro.sim.kernel import Simulator
from repro.sim.network import Link
from repro.sim.node import SimNode
from repro.trace import SpanContext, Tracer
from repro.wire import Reader, put_str, put_varint

__all__ = ["S3Gateway", "place_key"]

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


# -- the gateway --------------------------------------------------------------


class S3Gateway:
    """Conventional object-store endpoint on the frontend node."""

    GET_TAIL = "s3.get_tail"
    GET_RANGES = "s3.get_ranges"

    def __init__(
        self,
        sim: Simulator,
        frontend: SimNode,
        storage: Sequence[SimNode],
        links: Sequence[Link],
        store: ObjectStore,
        costs: CostParams,
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
        self.service = RpcService(sim, frontend, "s3-gateway", costs, tracer=tracer)
        self.service.register(self.GET_TAIL, self._handle_get_tail)
        self.service.register(self.GET_RANGES, self._handle_get_ranges)

    def _route(self, key: str) -> Tuple[SimNode, Link]:
        index = place_key(key, len(self.storage))
        return self.storage[index], self.links[index]

    # -- handlers ------------------------------------------------------------

    def _handle_get_tail(self, payload: bytes, trace: SpanContext):
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

    def _handle_get_ranges(self, payload: bytes, trace: SpanContext):
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
