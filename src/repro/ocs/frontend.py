"""The OCS frontend: unified gRPC endpoint, plan parsing, dispatch.

Request/response envelopes are plain length-prefixed binary so their
sizes feed the network model.  The response carries a small stats trailer
(the cost report) which the Presto-OCS connector's EventListener logs —
real OCS exposes similar per-request telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import OcsError, RpcStatusError, StatusCode
from repro.sim.faults import FaultInjector
from repro.ocs.embedded_engine import OcsCostReport
from repro.ocs.storage_node import OcsStorageNode
from repro.rpc.channel import RpcService
from repro.sim.costmodel import CostParams
from repro.sim.kernel import Simulator
from repro.sim.network import Link
from repro.sim.node import SimNode
from repro.substrait.serde import deserialize_plan
from repro.substrait.validator import validate_plan
from repro.trace import SpanContext, Tracer
from repro.wire import Reader, put_str, put_varint

__all__ = [
    "PushdownRequest",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "OcsFrontend",
]


@dataclass(frozen=True)
class PushdownRequest:
    """One pushdown execution request addressed to a storage node."""

    plan_bytes: bytes
    bucket: str
    keys: Tuple[str, ...]
    node_index: int = 0


def encode_request(request: PushdownRequest) -> bytes:
    out = bytearray(b"OCRQ")
    put_varint(out, len(request.plan_bytes))
    out += request.plan_bytes
    put_str(out, request.bucket)
    put_varint(out, len(request.keys))
    for key in request.keys:
        put_str(out, key)
    put_varint(out, request.node_index)
    return bytes(out)


def decode_request(buf: bytes) -> PushdownRequest:
    r = Reader(buf, OcsError)
    r.expect(b"OCRQ", "OCS request")
    plan_bytes = r.take(r.varint())
    bucket = r.text()
    keys = tuple([r.text() for _ in range(r.count(1))])
    request = PushdownRequest(plan_bytes, bucket, keys, r.varint())
    r.done()
    return request


def encode_response(arrow: bytes, report: OcsCostReport) -> bytes:
    out = bytearray(b"OCRS")
    put_varint(out, len(arrow))
    out += arrow
    for value in (
        report.stored_bytes_read,
        report.uncompressed_bytes,
        report.rows_scanned,
        report.rows_returned,
        report.row_groups_pruned,
        report.row_groups_read,
        report.dynamic_rows_pruned,
        int(report.total_cpu_cycles),
        report.page_cache_hits,
    ):
        put_varint(out, int(value))
    return bytes(out)


def decode_response(buf: bytes) -> Tuple[bytes, OcsCostReport]:
    r = Reader(buf, OcsError)
    r.expect(b"OCRS", "OCS response")
    arrow = r.take(r.varint())
    report = OcsCostReport(
        stored_bytes_read=r.varint(),
        uncompressed_bytes=r.varint(),
        rows_scanned=r.varint(),
        rows_returned=r.varint(),
        row_groups_pruned=r.varint(),
        row_groups_read=r.varint(),
        dynamic_rows_pruned=r.varint(),
        compute_cycles=float(r.varint()),
        page_cache_hits=r.varint(),
    )
    r.done()
    return arrow, report


class OcsFrontend:
    """Frontend node: accepts Substrait plans, dispatches to storage nodes."""

    METHOD = "ocs.execute"

    def __init__(
        self,
        sim: Simulator,
        node: SimNode,
        storage_nodes: Sequence[OcsStorageNode],
        storage_links: Sequence[Link],
        costs: CostParams,
        faults: Optional[FaultInjector] = None,
        *,
        tracer: Tracer,
    ) -> None:
        if len(storage_nodes) != len(storage_links):
            raise OcsError("need one frontend<->storage link per storage node")
        if not storage_nodes:
            raise OcsError("OCS needs at least one storage node")
        self.sim = sim
        self.node = node
        self.storage_nodes = list(storage_nodes)
        self.storage_links = list(storage_links)
        self.costs = costs
        self.faults = faults
        self.tracer = tracer
        self.service = RpcService(sim, node, "ocs-frontend", costs, tracer=tracer)
        self.service.register(self.METHOD, self._handle_execute)
        self.requests_served = 0

    def _handle_execute(self, payload: bytes, trace: Optional[SpanContext] = None):
        request = decode_request(payload)
        if not 0 <= request.node_index < len(self.storage_nodes):
            raise OcsError(f"no storage node {request.node_index}")
        if self.faults is not None:
            fault = self.faults.storage_fault(request.node_index)
            if fault is not None:
                # The node's embedded engine is refusing work; raw object
                # GETs through the S3 gateway are unaffected.
                raise RpcStatusError(StatusCode.UNAVAILABLE, fault)
        # Parse + validate the plan (real work) and charge frontend CPU.
        decode_span = self.tracer.start(
            "ocs.decode_plan",
            parent=trace,
            attributes={"node": self.node.name, "plan_bytes": len(request.plan_bytes)},
        )
        try:
            plan = deserialize_plan(bytes(request.plan_bytes))
            validate_plan(plan)
            yield self.node.execute(
                self.costs.frontend_parse_cycles_fixed
                + len(request.plan_bytes) * self.costs.frontend_parse_cycles_per_byte,
                name="parse-plan",
            )
        finally:
            self.tracer.end(decode_span)
        storage = self.storage_nodes[request.node_index]
        link = self.storage_links[request.node_index]
        service_start = self.sim.now
        exec_span = self.tracer.start(
            "ocs.dispatch", parent=trace, attributes={"storage_node": storage.node.name}
        )
        try:
            yield link.transfer(
                self.node.name, storage.node.name, len(payload), label="plan-dispatch"
            )
            arrow, report = yield storage.execute_plan(
                plan, request.bucket, list(request.keys), trace=exec_span.context
            )
        finally:
            self.tracer.end(exec_span)
        if self.faults is not None:
            slowdown = self.faults.latency_multiplier(request.node_index)
            if slowdown > 1.0:
                # A slow node stretches its service time without changing
                # the result — the scenario client deadlines exist for.
                yield self.sim.timeout(
                    (self.sim.now - service_start) * (slowdown - 1.0)
                )
        response = encode_response(arrow, report)
        yield link.transfer(
            storage.node.name, self.node.name, len(response), label="plan-result"
        )
        self.requests_served += 1
        return response
