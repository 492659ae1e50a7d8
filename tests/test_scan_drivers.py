"""Which part of a split holds a scan driver.

The cluster has ``scan_stream_concurrency = 1`` scan driver.  A split
whose page source blocks on storage (the OCS pushdown round trip) holds
no driver while it waits: it takes one only for ingest and the
split-local operators, so several splits' storage work overlaps.  A Hive
raw split's page source is the worker's own ingest stream, so it holds
the driver for the whole split and raw splits run one after another.
"""

import dataclasses

import pytest

from repro.bench.env import Environment, RunConfig
from repro.config import DEFAULT_TESTBED
from repro.engine.cluster import Cluster
from repro.engine.coordinator import Coordinator
from repro.engine.scheduler import ServiceClock
from repro.engine.session import Session
from repro.workloads import DatasetSpec, generate_lineitem

FILES = 4
ROWS = 2_000
SQL = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.02 GROUP BY returnflag"
)


@pytest.fixture(scope="module")
def env():
    testbed = dataclasses.replace(DEFAULT_TESTBED, storage_node_count=2)
    env = Environment(testbed=testbed)
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="data",
            file_count=FILES,
            generator=lambda i: generate_lineitem(ROWS, seed=17, start_row=i * ROWS),
            row_group_rows=512,
        )
    )
    return env


def _run(env, config):
    """Run ``SQL`` under ``config``; returns (result, cluster)."""
    cluster = Cluster(env.store, env.testbed, env.costs)
    coordinator = Coordinator(cluster, {"repro": env.build_connector(cluster, config)})
    sim = cluster.sim
    process = sim.process(
        coordinator.query_process(SQL, Session(catalog="repro", schema="tpch"),
                                  query_id="q"),
        name="query",
    )
    return sim.run(until=process), cluster


def _split_spans(trace):
    return [
        span for span in trace
        if span.name.startswith("split-") and span.attributes.get("split") is not None
    ]


def _children(trace, span, prefix):
    return [c for c in trace.children(span) if c.name.startswith(prefix)]


def _work(trace, split):
    """A split's work: its first child span's start to its last one's end."""
    children = trace.children(split)
    return min(c.start for c in children), max(c.end for c in children)


def _overlap(a, b):
    return a[0] < b[1] and b[0] < a[1]


def _pairwise_disjoint(intervals):
    return not any(
        _overlap(a, b)
        for i, a in enumerate(intervals)
        for b in intervals[i + 1:]
    )


def test_ocs_scans_overlap_but_ingest_does_not(env):
    result, _ = _run(env, RunConfig.filter_only())
    trace = result.trace
    scans = [
        (span.start, span.end) for span in trace if span.name.startswith("ocs.scan[")
    ]
    assert len(scans) == 2  # one node-granularity split per storage node
    assert _overlap(*scans)
    ingests = [
        (c.start, c.end)
        for split in _split_spans(trace)
        for c in _children(trace, split, "ingest")
    ]
    assert len(ingests) == 2
    assert _pairwise_disjoint(ingests)


def test_hive_raw_splits_never_overlap(env):
    result, _ = _run(env, RunConfig.none())
    trace = result.trace
    splits = _split_spans(trace)
    assert len(splits) == FILES
    assert all(_children(trace, split, "hive.fetch_raw") for split in splits)
    assert _pairwise_disjoint([_work(trace, split) for split in splits])


def test_ocs_driver_seconds_are_ingest_plus_split_operators(env):
    result, cluster = _run(env, RunConfig.filter_only())
    trace = result.trace
    driver_side = sum(
        c.duration
        for split in _split_spans(trace)
        for c in trace.children(split)
        if c.name in ("ingest", "split-operators")
    )
    assert driver_side > 0
    assert cluster.scan_drivers.busy_seconds("q") == pytest.approx(
        driver_side, rel=1e-12
    )


def test_hive_raw_driver_seconds_cover_the_whole_fetch(env):
    result, cluster = _run(env, RunConfig.none())
    trace = result.trace
    spans = [_work(trace, split) for split in _split_spans(trace)]
    held = sum(end - start for start, end in spans)
    assert cluster.scan_drivers.busy_seconds("q") == pytest.approx(held, rel=1e-12)


class TestServiceClock:
    def test_queue_wait_is_excluded_wherever_it_falls(self):
        clock = ServiceClock(0.25)  # launched; the page source runs
        clock.pause(0.75)  # 0.5 s of service, then queued for a driver
        assert clock.start is None
        clock.resume(2.0)  # driver granted after 1.25 s in the queue
        assert clock.start == 1.5  # 2.0 - 0.5: the wait is not service
        assert 3.0 - clock.start == 1.5

    def test_a_wait_before_any_work_starts_service_at_the_grant(self):
        clock = ServiceClock(0.1)
        clock.pause(0.1)
        clock.resume(0.7)
        assert clock.start == 0.7
