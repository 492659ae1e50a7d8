"""Determinism-checker tests: kernel instrumentation + digest harness."""

import numpy as np
import pytest

from repro.analysis.determinism import (
    DigestRecorder,
    canonical_result_digest,
    check_determinism,
    check_service_determinism,
    run_recorded,
    run_service_recorded,
)
from repro.arrowsim.record_batch import RecordBatch
from repro.bench import RunConfig
from repro.errors import SimulationError
from repro.sim.kernel import Simulator


# -- kernel tie-break instrumentation -----------------------------------------


def _dispatch_order(tie_break):
    """Names of three same-instant timeouts in dispatch order."""
    sim = Simulator(tie_break=tie_break)
    order = []
    for name in ("a", "b", "c"):
        sim.timeout(1.0, value=name).callbacks.append(
            lambda ev: order.append(ev.value)
        )
    sim.run(until=2.0)
    return order


class TestTieBreak:
    def test_fifo_is_schedule_order(self):
        assert _dispatch_order("fifo") == ["a", "b", "c"]

    def test_lifo_reverses_same_instant_runs(self):
        assert _dispatch_order("lifo") == ["c", "b", "a"]

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(tie_break="random")

    def test_max_simultaneous_events_counts_runs(self):
        sim = Simulator()
        for _ in range(3):
            sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run(until=3.0)
        assert sim.max_simultaneous_events == 3

    def test_observer_sees_every_dispatch(self):
        seen = []
        sim = Simulator(observer=lambda t, seq, ev: seen.append((t, seq)))
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run(until=3.0)
        assert [t for t, _ in seen] == [1.0, 2.0]
        # Sequence ids are the (positive) scheduling order.
        assert all(seq > 0 for _, seq in seen)


# -- digests ------------------------------------------------------------------


class TestDigests:
    def test_recorder_chains_per_event(self):
        recorder = DigestRecorder()
        sim = Simulator(observer=recorder)
        sim.timeout(1.0)
        sim.timeout(1.0)
        sim.run(until=2.0)
        assert len(recorder.digests) == 2
        assert recorder.digests[0] != recorder.digests[1]
        assert recorder.max_simultaneous == 2

    def test_identical_schedules_identical_digests(self):
        def record():
            recorder = DigestRecorder()
            sim = Simulator(observer=recorder)
            for delay in (1.0, 1.0, 2.5):
                sim.timeout(delay)
            sim.run(until=3.0)
            return recorder.final_digest

        assert record() == record()

    def test_canonical_digest_ignores_row_and_column_order(self):
        a = RecordBatch.from_arrays(
            {"x": np.array([1, 2, 3]), "y": np.array([4.0, 5.0, 6.0])}
        )
        b = RecordBatch.from_arrays(
            {"y": np.array([6.0, 4.0, 5.0]), "x": np.array([3, 1, 2])}
        )
        assert canonical_result_digest(a) == canonical_result_digest(b)

    def test_canonical_digest_sees_value_changes(self):
        a = RecordBatch.from_arrays({"x": np.array([1, 2, 3])})
        b = RecordBatch.from_arrays({"x": np.array([1, 2, 4])})
        assert canonical_result_digest(a) != canonical_result_digest(b)


# -- end-to-end harness -------------------------------------------------------


class TestHarness:
    def test_quickstart_workload_is_deterministic(self, small_env):
        sql = """
        SELECT count(*) AS n, avg(e) AS avg_e, max(p) AS max_p
        FROM laghos WHERE e > 1.0
        """
        report = check_determinism(
            small_env, sql, RunConfig(label="det", mode="ocs"), schema="hpc"
        )
        assert report.replay_identical
        assert not report.ordering_hazard
        assert report.ok
        report.raise_if_failed()
        assert report.baseline.events > 0
        assert "result" in report.summary()

    def test_run_recorded_captures_schedule(self, small_env):
        sql = "SELECT count(*) AS n FROM laghos"
        replay = run_recorded(
            small_env, sql, RunConfig(label="det", mode="ocs"), schema="hpc"
        )
        assert replay.events == len(replay.event_digests) > 0
        assert replay.result_digest
        assert replay.execution_seconds > 0


# -- bench suites -------------------------------------------------------------


class TestBenchSuites:
    def test_dag_suite_digest_identity(self):
        # One straggler trial, speculation on: FIFO replays must be
        # event-digest identical and the LIFO replay result-identical —
        # the scheduler's tie settlement is exactly what this exercises.
        from repro.analysis.determinism import check_dag_determinism

        report = check_dag_determinism(seed=0)
        assert report.replay_identical
        assert not report.ordering_hazard
        # Speculation really produced same-instant event runs to break.
        assert report.baseline.max_simultaneous > 1

    def test_faulted_baseline_suite_replays_the_healthy_answer(self):
        # hive-raw under link drops: retries and their jittered backoff
        # replay event for event, and LIFO changes nothing either.
        from repro.analysis.determinism import (
            HARNESS_QUERY, _build_harness_env, _check_faulted_baseline_suite,
        )

        report = _check_faulted_baseline_suite()
        report.raise_if_failed()
        healthy = run_recorded(
            _build_harness_env(), HARNESS_QUERY,
            RunConfig(label="healthy", mode="hive-raw"), schema="lab",
        )
        assert report.baseline.result_digest == healthy.result_digest
        # The drops cost retries: more events than the healthy run.
        assert report.baseline.events > healthy.events

    def test_service_suite_full_slo_digest_identity(self):
        # The service claim is stronger than result parity: the SLO
        # digest folds in per-query latencies and queue waits, so a
        # tie-break-dependent admission or dispatch order would register.
        report = check_service_determinism(queries=6, seed=0)
        assert report.replay_identical
        assert not report.ordering_hazard
        assert report.adversarial.result_digest == report.baseline.result_digest
        assert report.baseline.events > 0
        report.raise_if_failed()

    def test_service_recorder_snapshot_after_drain(self):
        replay = run_service_recorded(queries=3, seed=1)
        assert replay.events == len(replay.event_digests) > 0
        assert replay.execution_seconds > 0
