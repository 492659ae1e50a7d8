"""Unit tests for the gRPC-class RPC layer over simulated links."""

import pytest

from repro.config import NodeSpec
from repro.errors import RpcError, RpcStatusError
from repro.rpc import RpcClient, RpcService
from repro.rpc.channel import FRAME_OVERHEAD_BYTES
from repro.sim import DEFAULT_COSTS, Link, SimNode, Simulator
from repro.trace import Tracer


def _node_spec(name):
    return NodeSpec(
        name=name, cores=4, clock_ghz=1.0, memory_gb=8,
        disk_bandwidth_bps=1e9, ipc_efficiency=1.0,
    )


@pytest.fixture()
def setup():
    sim = Simulator()
    client_node = SimNode(sim, _node_spec("client"))
    server_node = SimNode(sim, _node_spec("server"))
    link = Link(sim, bandwidth_bps=1e6, latency_s=0.001)
    tracer = Tracer(clock=lambda: sim.now)
    service = RpcService(sim, server_node, "echo-service", DEFAULT_COSTS, tracer)
    client = RpcClient(sim, client_node, link, service, DEFAULT_COSTS, tracer)
    return sim, service, client, link


class TestRpc:
    def test_echo(self, setup):
        sim, service, client, _ = setup

        def echo(payload, trace):
            yield sim.timeout(0)
            return b"echo:" + payload

        service.register("echo", echo)
        response = sim.run(until=client.call("echo", b"hello"))
        assert response == b"echo:hello"
        served = [s.name for s in service.tracer.spans()]
        assert served.count("echo-service.server:echo") == 1

    def test_server_work_advances_clock(self, setup):
        sim, service, client, _ = setup

        def slow(payload, trace):
            yield sim.timeout(5.0)
            return b"done"

        service.register("slow", slow)
        sim.run(until=client.call("slow", b""))
        assert sim.now > 5.0

    def test_transfer_bytes_on_ledger(self, setup):
        sim, service, client, link = setup

        def big(payload, trace):
            yield sim.timeout(0)
            return b"x" * 1000

        service.register("big", big)
        sim.run(until=client.call("big", b"req!"))
        assert link.ledger.total_bytes(src="client", dst="server") == 4 + FRAME_OVERHEAD_BYTES
        assert link.ledger.total_bytes(src="server", dst="client") == 1000 + FRAME_OVERHEAD_BYTES

    def test_unknown_method(self, setup):
        sim, service, client, _ = setup
        with pytest.raises(RpcStatusError) as info:
            sim.run(until=client.call("missing", b""))
        assert info.value.code == "UNIMPLEMENTED"

    def test_handler_exception_maps_to_status(self, setup):
        sim, service, client, _ = setup

        def boom(payload, trace):
            yield sim.timeout(0)
            raise ValueError("kaput")

        service.register("boom", boom)
        with pytest.raises(RpcStatusError) as info:
            sim.run(until=client.call("boom", b""))
        assert info.value.code == "INTERNAL"
        assert "kaput" in info.value.detail

    def test_non_bytes_response_rejected(self, setup):
        sim, service, client, _ = setup

        def bad(payload, trace):
            yield sim.timeout(0)
            return 42

        service.register("bad", bad)
        with pytest.raises(RpcStatusError):
            sim.run(until=client.call("bad", b""))

    def test_duplicate_registration(self, setup):
        _, service, _, _ = setup
        service.register("m", lambda p, trace: iter(()))
        with pytest.raises(RpcError):
            service.register("m", lambda p, trace: iter(()))

    def test_concurrent_calls_serialize_on_link(self, setup):
        sim, service, client, _ = setup

        def payload_heavy(payload, trace):
            yield sim.timeout(0)
            return b"y" * 500_000

        service.register("heavy", payload_heavy)
        p1 = client.call("heavy", b"1")
        p2 = client.call("heavy", b"2")
        sim.run()
        # 1 MB total at 1 MB/s plus overheads: both finished after ~1 s.
        assert sim.now > 1.0
        assert p1.value == p2.value
