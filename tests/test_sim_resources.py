"""Unit tests for Resource, Store, Link, SimNode, metrics, and cost params."""

import pytest

from repro.config import NodeSpec
from repro.errors import SimulationError
from repro.sim import (
    DEFAULT_COSTS,
    CostParams,
    Link,
    Resource,
    SimNode,
    Simulator,
    Store,
)
from repro.trace import Span, SpanContext, Trace, Tracer, counter_totals, stage_totals


def _stage_trace(*windows):
    """A trace of stage-tagged spans, one per ``(stage, start, end)``."""
    return Trace([
        Span(
            name=stage, context=SpanContext(trace_id=1, span_id=i),
            parent_id=None, start=start, end=end, attributes={"stage": stage},
        )
        for i, (stage, start, end) in enumerate(windows, start=1)
    ])


@pytest.fixture()
def sim():
    return Simulator()


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            with res.request() as req:
                yield req
                yield sim.timeout(1.0)
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        # Two run [0,1], two queue and run [1,2].
        assert finish_times == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(name):
            with res.request() as req:
                yield req
                order.append(name)
                yield sim.timeout(1.0)

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_without_request_rejected(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_utilization(self, sim):
        res = Resource(sim, capacity=2)

        def worker():
            with res.request() as req:
                yield req
                yield sim.timeout(10.0)

        sim.process(worker())
        sim.run()
        assert res.utilization() == pytest.approx(0.5)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        ev = store.get()
        sim.run()
        assert ev.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            item = yield store.get()
            received.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert received == [(3.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        values = []

        def consumer():
            for _ in range(3):
                values.append((yield store.get()))

        sim.run(until=sim.process(consumer()))
        assert values == [0, 1, 2]


class TestLink:
    def test_transfer_time_is_bytes_over_bandwidth_plus_latency(self, sim):
        link = Link(sim, bandwidth_bps=1000.0, latency_s=0.5)
        proc = link.transfer("a", "b", 2000, label="test")
        sim.run(until=proc)
        assert sim.now == pytest.approx(2.5)

    def test_ledger_records_all_bytes(self, sim):
        link = Link(sim, bandwidth_bps=1e6)
        link.transfer("storage", "compute", 100, label="arrow")
        link.transfer("storage", "compute", 250, label="arrow")
        link.transfer("compute", "storage", 40, label="plan")
        sim.run()
        assert link.ledger.total_bytes(src="storage", dst="compute") == 350
        assert link.ledger.total_bytes(src="compute", dst="storage") == 40
        assert link.ledger.total_bytes(label="arrow") == 350
        assert len(link.ledger) == 3

    def test_concurrent_transfers_serialize(self, sim):
        link = Link(sim, bandwidth_bps=100.0)
        p1 = link.transfer("a", "b", 100)
        p2 = link.transfer("a", "b", 100)
        sim.run()
        records = list(link.ledger.records())
        assert records[0].end == pytest.approx(1.0)
        assert records[1].end == pytest.approx(2.0)

    def test_negative_bytes_rejected(self, sim):
        link = Link(sim, bandwidth_bps=100.0)
        with pytest.raises(SimulationError):
            link.transfer("a", "b", -1)


class TestSimNode:
    @pytest.fixture()
    def node(self, sim):
        spec = NodeSpec(
            name="n", cores=4, clock_ghz=1.0, memory_gb=1,
            disk_bandwidth_bps=1000.0, ipc_efficiency=1.0,
        )
        return SimNode(sim, spec)

    def test_compute_seconds(self, node):
        assert node.compute_seconds(2e9) == pytest.approx(2.0)

    def test_parallel_execution_uses_cores(self, sim, node):
        procs = [node.execute(1e9) for _ in range(4)]
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_oversubscription_queues(self, sim, node):
        for _ in range(8):
            node.execute(1e9)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_disk_read_serialized(self, sim, node):
        node.read_disk(1000)
        node.read_disk(1000)
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert node.disk_bytes_read == 2000

    def test_negative_cycles_rejected(self, node):
        with pytest.raises(SimulationError):
            node.compute_seconds(-5)


class TestMetrics:
    def test_counters(self):
        tracer = Tracer(clock=lambda: 0.0)
        root = tracer.start("query")
        tracer.start("split-0", parent=root).add("rows", 10).add("empty", 0)
        tracer.start("split-1", parent=root).add("rows", 5)
        totals = counter_totals(tracer.trace(root))
        assert totals.value("rows") == 15
        assert totals.value("missing") == 0
        # A zero-valued count still names its key; values are floats.
        assert totals.snapshot() == {"empty": 0.0, "rows": 15.0}
        assert all(type(v) is float for v in totals.snapshot().values())
        # Counters never leak into the attributes renderers print.
        assert all(not span.attributes for span in tracer.trace(root))

    def test_counter_rejects_negative(self):
        span = Tracer(clock=lambda: 0.0).start("query")
        with pytest.raises(ValueError):
            span.add("rows", -1)

    def test_stage_totals_scale_overlapping_stages_to_elapsed(self):
        # Stages overlapping *each other* sum past the wall time (2 + 3
        # over 4 s); the totals are scaled down to partition it.
        totals = stage_totals(_stage_trace(("a", 0.0, 2.0), ("b", 1.0, 4.0)), 4.0)
        assert totals["a"] == pytest.approx(1.6)
        assert totals["b"] == pytest.approx(2.4)
        assert sum(totals.values()) == pytest.approx(4.0)

    def test_stage_totals_accumulate_disjoint_windows(self):
        totals = stage_totals(_stage_trace(("x", 0.0, 1.0), ("x", 2.0, 4.0)), 10.0)
        assert totals == {"x": 3.0}


class TestCostParams:
    def test_sort_cycles_zero_for_trivial(self):
        assert DEFAULT_COSTS.sort_cycles(0) == 0.0
        assert DEFAULT_COSTS.sort_cycles(1) == 0.0

    def test_sort_cycles_superlinear(self):
        small = DEFAULT_COSTS.sort_cycles(1000)
        big = DEFAULT_COSTS.sort_cycles(2000)
        assert big > 2 * small

    def test_decompress_cycles_codec_ordering(self):
        # gzip is the most CPU-hungry, snappy the cheapest (paper Section 5 Q3).
        n = 1_000_000
        c = DEFAULT_COSTS
        assert c.decompress_cycles("none", n) == 0.0
        assert (
            c.decompress_cycles("snappy", n)
            < c.decompress_cycles("zstd", n)
            < c.decompress_cycles("gzip", n)
        )

    def test_unknown_codec_rejected(self):
        with pytest.raises(KeyError):
            DEFAULT_COSTS.decompress_cycles("lz4", 10)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.vector_op_cycles_per_value = 1.0  # type: ignore[misc]

    def test_custom_params(self):
        params = CostParams(vector_op_cycles_per_value=2.0)
        assert params.vector_op_cycles_per_value == 2.0
