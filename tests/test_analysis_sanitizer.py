"""SimTSan tests: planted races, happens-before edges, zero-cost off path."""

import contextlib
import importlib
import sys

import pytest

from repro.analysis.determinism import DigestRecorder
from repro.analysis.race import run_bench_suites, run_self_test
from repro.analysis.sanitizer import SimTSan
from repro.bench.env import Environment, RunConfig
from repro.errors import SanitizerError
from repro.sim import santrack
from repro.sim.kernel import AllOf, Simulator
from repro.workloads.datasets import DatasetSpec
from repro.workloads.laghos import generate_laghos_file

KEY = ("test", "shared")


@contextlib.contextmanager
def _sanitized_sim(sink=None):
    sim = Simulator()
    sanitizer = SimTSan(sim, sink=sink).install()
    try:
        yield sim, sanitizer
    finally:
        sanitizer.uninstall()


def _sites(report):
    return {report.first.site, report.second.site}


# -- planted races -------------------------------------------------------------


class TestSyntheticRaces:
    def test_same_instant_unordered_writes_race(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def writer(tag):
                yield sim.timeout(0.5)
                san.record_write(KEY, f"t.{tag}")

            sim.process(writer("a"), name="a")
            sim.process(writer("b"), name="b")
            sim.run()
        assert len(reports) == 1
        report = reports[0]
        assert _sites(report) == {"t.a", "t.b"}
        assert report.time == 0.5
        assert report.first.kind == "write" and report.second.kind == "write"
        assert "test" in report.key
        # Both access records carry a usable source location.
        assert "test_analysis_sanitizer" in report.first.surface
        assert report.describe()

    def test_same_instant_read_write_race(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def reader():
                yield sim.timeout(0.25)
                san.record_read(KEY, "t.reader")

            def writer():
                yield sim.timeout(0.25)
                san.record_write(KEY, "t.writer")

            sim.process(reader(), name="r")
            sim.process(writer(), name="w")
            sim.run()
        assert len(reports) == 1
        assert _sites(reports[0]) == {"t.reader", "t.writer"}
        assert {reports[0].first.kind, reports[0].second.kind} == {
            "read",
            "write",
        }

    def test_commutative_updates_do_not_race(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def bump(tag):
                yield sim.timeout(0.5)
                san.record_update(KEY, f"t.{tag}")

            sim.process(bump("a"), name="a")
            sim.process(bump("b"), name="b")
            sim.run()
        assert reports == []

    def test_concurrent_reads_do_not_race(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def peek(tag):
                yield sim.timeout(0.5)
                san.record_read(KEY, f"t.{tag}")

            sim.process(peek("a"), name="a")
            sim.process(peek("b"), name="b")
            sim.run()
        assert reports == []

    def test_different_instants_do_not_race(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def writer(tag, delay):
                yield sim.timeout(delay)
                san.record_write(KEY, f"t.{tag}")

            sim.process(writer("a", 0.25), name="a")
            sim.process(writer("b", 0.5), name="b")
            sim.run()
        assert reports == []


class TestHappensBefore:
    def test_event_succeed_orders_same_instant_accesses(self):
        # Producer writes, then succeeds the event the consumer waits on:
        # both accesses land at one instant, but the edge orders them.
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            gate = sim.event()

            def producer():
                yield sim.timeout(0.5)
                san.record_write(KEY, "t.producer")
                gate.succeed()

            def consumer():
                yield gate
                san.record_write(KEY, "t.consumer")

            sim.process(producer(), name="p")
            sim.process(consumer(), name="c")
            sim.run()
        assert reports == []

    def test_write_after_succeed_is_concurrent_with_waiter(self):
        # Succeeding first, then writing: the waiter wakes without an
        # edge covering the late write — that interleaving is a race.
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            gate = sim.event()

            def producer():
                yield sim.timeout(0.5)
                gate.succeed()
                san.record_write(KEY, "t.late_producer")

            def consumer():
                yield gate
                san.record_write(KEY, "t.consumer")

            sim.process(producer(), name="p")
            sim.process(consumer(), name="c")
            sim.run()
        assert len(reports) == 1
        assert _sites(reports[0]) == {"t.late_producer", "t.consumer"}

    def test_publish_observe_orders_side_channel(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def producer():
                yield sim.timeout(0.5)
                san.record_write(KEY, "t.producer")
                san.publish("handoff")

            def consumer():
                yield sim.timeout(0.5)
                san.observe("handoff")
                san.record_read(KEY, "t.consumer")

            sim.process(producer(), name="p")
            sim.process(consumer(), name="c")
            sim.run()
        # Schedule-dependent like any dynamic race detector: the edge is
        # only there if the producer really dispatched first (FIFO does).
        assert reports == []

    def test_barrier_is_a_global_sync_point(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def writer():
                yield sim.timeout(0.5)
                san.record_write(KEY, "t.writer")

            def late():
                yield sim.timeout(0.5)
                yield sim.barrier()
                san.record_write(KEY, "t.after_barrier")

            sim.process(writer(), name="w")
            sim.process(late(), name="l")
            sim.run()
        assert reports == []

    def test_all_of_orders_the_waiter_after_every_child(self):
        # Two children finish at one instant; the first one's update must
        # be ordered before the waiter's read, not only the last one's.
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def child(tag):
                yield sim.timeout(0.5)
                san.record_update(KEY, f"t.{tag}")

            def waiter():
                yield AllOf(sim, [sim.process(child(t), name=t) for t in "ab"])
                san.record_read(KEY, "t.waiter")

            sim.process(waiter(), name="w")
            sim.run()
        assert reports == []


class TestRaising:
    def test_raise_if_races_carries_race_code(self):
        with _sanitized_sim() as (sim, san):
            def writer(tag):
                yield sim.timeout(0.5)
                san.record_write(KEY, f"t.{tag}")

            sim.process(writer("a"), name="a")
            sim.process(writer("b"), name="b")
            sim.run()
            with pytest.raises(SanitizerError) as excinfo:
                san.raise_if_races()
        assert excinfo.value.code == "RACE"
        assert excinfo.value.report is not None

    def test_sink_mode_never_raises(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def writer(tag):
                yield sim.timeout(0.5)
                san.record_write(KEY, f"t.{tag}")

            sim.process(writer("a"), name="a")
            sim.process(writer("b"), name="b")
            sim.run()
            san.raise_if_races()  # sink mode: collect, don't throw
        assert len(reports) == 1

    def test_duplicate_site_pairs_dedup(self):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            def writer(tag, delay):
                yield sim.timeout(delay)
                san.record_write(KEY, f"t.{tag}")

            for delay in (0.25, 0.5):
                sim.process(writer("a", delay), name="a")
                sim.process(writer("b", delay), name="b")
            sim.run()
        # Two instants, same (site, site, kind) pair: reported once.
        assert len(reports) == 1


# -- suppression comments ------------------------------------------------------


_SUPPRESSED_MODULE = '''\
def write_pair(sim, sanitizer, key):
    def writer_a():
        yield sim.timeout(0.5)
        sanitizer.record_write(key, "sup.a")  # simtsan: ignore[sup.a]

    def writer_b():
        yield sim.timeout(0.5)
        sanitizer.record_write(key, "sup.b")

    sim.process(writer_a(), name="a")
    sim.process(writer_b(), name="b")


def wrong_label_pair(sim, sanitizer, key):
    def writer_a():
        yield sim.timeout(0.5)
        sanitizer.record_write(key, "sup.c")  # simtsan: ignore[other.site]

    def writer_b():
        yield sim.timeout(0.5)
        sanitizer.record_write(key, "sup.d")

    sim.process(writer_a(), name="a")
    sim.process(writer_b(), name="b")
'''


class TestSuppression:
    @pytest.fixture()
    def suppressed_module(self, tmp_path):
        path = tmp_path / "simtsan_suppression_fixture.py"
        path.write_text(_SUPPRESSED_MODULE)
        sys.path.insert(0, str(tmp_path))
        try:
            yield importlib.import_module("simtsan_suppression_fixture")
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("simtsan_suppression_fixture", None)

    def test_ignore_comment_suppresses_report(self, suppressed_module):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            suppressed_module.write_pair(sim, san, KEY)
            sim.run()
        assert reports == []

    def test_wrong_label_still_flags(self, suppressed_module):
        reports = []
        with _sanitized_sim(sink=reports) as (sim, san):
            suppressed_module.wrong_label_pair(sim, san, KEY)
            sim.run()
        assert len(reports) == 1


# -- the off path is zero-cost -------------------------------------------------


def _tiny_env():
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="hpc",
            table_name="laghos",
            bucket="data",
            file_count=1,
            generator=lambda i: generate_laghos_file(2048, i, seed=3),
        )
    )
    return env


class TestOffModeZeroCost:
    SQL = "SELECT count(*) AS n, max(e) AS max_e FROM laghos WHERE e > 1.0"

    def _run(self, env, strict_sanitize):
        recorder = DigestRecorder()
        config = RunConfig(
            label="zero-cost", mode="ocs", strict_sanitize=strict_sanitize
        )
        result = env.run(
            self.SQL, config, schema="hpc", observer=recorder
        )
        return recorder.final_digest, result.execution_seconds

    def test_sanitized_run_is_byte_identical_to_off(self):
        # The sanitizer only observes: same event digests, same simulated
        # time, whether it is on or off.
        env = _tiny_env()
        off_digest, off_seconds = self._run(env, strict_sanitize=False)
        on_digest, on_seconds = self._run(env, strict_sanitize=True)
        assert on_digest == off_digest
        assert on_seconds == off_seconds

    def test_uninstall_restores_inactive(self):
        with _sanitized_sim() as (_, san):
            assert santrack.active() is san
        assert santrack.active() is not san


# -- the CLI harness -----------------------------------------------------------


class TestRaceHarness:
    def test_self_test_races_are_caught(self):
        rows = run_self_test(seed=0)
        assert [row.clean for row in rows] == [True, True]

    def test_self_test_seed_shifts_the_instant(self):
        assert [row.clean for row in run_self_test(seed=3)] == [True, True]

    def test_repo_benches_are_race_clean(self):
        rows = run_bench_suites(rows=4096, seed=0)
        assert all(row.clean for row in rows), [
            (row.name, row.detail) for row in rows
        ]
