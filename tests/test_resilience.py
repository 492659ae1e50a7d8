"""Resilience: RPC deadlines, retry policy, fallback, fault injection.

The pushdown path must degrade, not die: transient storage failures are
retried with backoff, deadline-bounded calls abandon slow nodes, and a
split whose pushdown exhausts its retries falls back to raw object GETs
plus local execution — producing exactly the batches pushdown would
have, at a data-movement/CPU premium the monitor records.
"""

import dataclasses

import numpy as np
import pytest

from repro.arrowsim import RecordBatch
from repro.bench import Environment, RunConfig
from repro.config import FaultSpec, NodeSpec
from repro.errors import RpcStatusError
from repro.rpc import RetryPolicy, RpcClient, RpcService, retrying_call
from repro.sim import DEFAULT_COSTS, FaultInjector, Link, SimNode, Simulator
from repro.trace import Tracer, stage_totals
from repro.workloads import DatasetSpec

QUERY = "SELECT grp, count(*) AS n FROM t GROUP BY grp"


def _file(index: int) -> RecordBatch:
    rng = np.random.default_rng(index)
    return RecordBatch.from_arrays(
        {"grp": rng.integers(0, 4, 2000), "v": rng.random(2000)}
    )


@pytest.fixture()
def env():
    e = Environment()
    e.add_dataset(
        DatasetSpec(
            schema_name="s", table_name="t", bucket="b",
            file_count=2, generator=_file, row_group_rows=512,
        )
    )
    return e


def _faulted(config: RunConfig, faults: FaultSpec, retry: RetryPolicy) -> RunConfig:
    return dataclasses.replace(config, faults=faults, retry=retry)


# -- retry policy (pure) ------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            initial_backoff_s=0.1, backoff_multiplier=2.0,
            max_backoff_s=0.5, jitter_fraction=0.0,
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)
        assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(initial_backoff_s=0.1, jitter_fraction=0.25)
        a = policy.backoff_s(1, salt=1.25)
        b = policy.backoff_s(1, salt=1.25)
        assert a == b, "same clock + attempt must give the same backoff"
        assert 0.1 <= a <= 0.1 * 1.25
        # Different salts decorrelate concurrent retriers.
        salts = {policy.backoff_s(1, salt=s) for s in (0.0, 0.5, 1.0, 2.0)}
        assert len(salts) > 1

    def test_retryable_codes(self):
        policy = RetryPolicy()
        assert policy.is_retryable("UNAVAILABLE")
        assert policy.is_retryable("DEADLINE_EXCEEDED")
        assert not policy.is_retryable("INVALID_ARGUMENT")
        assert not policy.is_retryable("INTERNAL")
        assert not policy.is_retryable("UNIMPLEMENTED")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(initial_backoff_s=-0.1)


# -- fault injector (pure) -----------------------------------------------------


class TestFaultInjector:
    def test_permanent_failure_never_recovers(self):
        inj = FaultInjector(FaultSpec(permanent_storage_failures=frozenset({1})))
        for _ in range(5):
            assert inj.storage_fault(1) is not None
        assert inj.storage_fault(0) is None
        assert inj.storage_faults_injected == 5

    def test_transient_budget_decrements_then_recovers(self):
        inj = FaultInjector(FaultSpec(transient_storage_failures={0: 2}))
        assert inj.storage_fault(0) is not None
        assert inj.storage_fault(0) is not None
        assert inj.storage_fault(0) is None
        assert inj.storage_faults_injected == 2

    def test_latency_multiplier_defaults_to_one(self):
        inj = FaultInjector(FaultSpec(storage_latency_multipliers={2: 8.0}))
        assert inj.latency_multiplier(2) == 8.0
        assert inj.latency_multiplier(0) == 1.0

    def test_drop_sequence_is_seeded(self):
        spec = FaultSpec(link_drop_probability=0.5, seed=42)
        first = FaultInjector(spec)
        second = FaultInjector(spec)
        assert [first.drop_frame("l") for _ in range(20)] == [
            second.drop_frame("l") for _ in range(20)
        ]
        assert first.frames_dropped == second.frames_dropped > 0

    def test_zero_probability_never_drops(self):
        inj = FaultInjector(FaultSpec(link_drop_probability=0.0))
        assert not any(inj.drop_frame("l") for _ in range(50))
        assert inj.frames_dropped == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(link_drop_probability=1.0)
        with pytest.raises(ValueError):
            FaultSpec(transient_storage_failures={0: -1})
        with pytest.raises(ValueError):
            FaultSpec(storage_latency_multipliers={0: 0.5})


# -- deadlines + retrying_call on an RPC micro-harness -------------------------


def _node_spec(name):
    return NodeSpec(
        name=name, cores=4, clock_ghz=1.0, memory_gb=8,
        disk_bandwidth_bps=1e9, ipc_efficiency=1.0,
    )


@pytest.fixture()
def rpc():
    sim = Simulator()
    client_node = SimNode(sim, _node_spec("client"))
    server_node = SimNode(sim, _node_spec("server"))
    link = Link(sim, bandwidth_bps=1e6, latency_s=0.001)
    tracer = Tracer(clock=lambda: sim.now)
    service = RpcService(sim, server_node, "svc", DEFAULT_COSTS, tracer)
    client = RpcClient(sim, client_node, link, service, DEFAULT_COSTS, tracer)
    return sim, service, client


class TestDeadlines:
    def test_deadline_exceeded_on_slow_server(self, rpc):
        sim, service, client = rpc

        def slow(payload, trace):
            yield sim.timeout(1.0)
            return b"late"

        service.register("slow", slow)
        with pytest.raises(RpcStatusError) as info:
            sim.run(until=client.call("slow", b"", deadline_s=0.1))
        assert info.value.code == "DEADLINE_EXCEEDED"
        assert client.deadlines_exceeded == 1
        # The caller observed exactly the deadline, not the server time.
        assert sim.now == pytest.approx(0.1)

    def test_fast_call_beats_deadline(self, rpc):
        sim, service, client = rpc

        def fast(payload, trace):
            yield sim.timeout(0.01)
            return b"ok"

        service.register("fast", fast)
        response = sim.run(until=client.call("fast", b"", deadline_s=5.0))
        assert response == b"ok"
        assert client.deadlines_exceeded == 0

    def test_nonpositive_deadline_fails_immediately(self, rpc):
        sim, service, client = rpc
        service.register("m", lambda p, trace: iter(()))
        with pytest.raises(RpcStatusError) as info:
            sim.run(until=client.call("m", b"", deadline_s=0.0))
        assert info.value.code == "DEADLINE_EXCEEDED"

    def test_handler_error_propagates_despite_deadline(self, rpc):
        sim, service, client = rpc

        def boom(payload, trace):
            yield sim.timeout(0.01)
            raise ValueError("kaput")

        service.register("boom", boom)
        with pytest.raises(RpcStatusError) as info:
            sim.run(until=client.call("boom", b"", deadline_s=5.0))
        assert info.value.code == "INTERNAL"

    def test_no_deadline_path_unchanged(self, rpc):
        sim, service, client = rpc

        def echo(payload, trace):
            yield sim.timeout(0)
            return payload

        service.register("echo", echo)
        assert sim.run(until=client.call("echo", b"hi")) == b"hi"


class TestRetryingCall:
    def _drive(self, sim, gen):
        def runner():
            result = yield from gen
            return result

        return sim.run(until=sim.process(runner()))

    def test_transient_failures_retried_to_success(self, rpc):
        sim, service, client = rpc
        calls = {"n": 0}

        def flaky(payload, trace):
            calls["n"] += 1
            yield sim.timeout(0.001)
            if calls["n"] <= 2:
                raise RpcStatusError("UNAVAILABLE", "warming up")
            return b"finally"

        service.register("flaky", flaky)
        retries = []
        policy = RetryPolicy(max_attempts=5, initial_backoff_s=0.01)
        response = self._drive(
            sim,
            retrying_call(
                client, "flaky", b"", policy,
                on_retry=lambda a, e, d: retries.append((a, e.code, d)),
            ),
        )
        assert response == b"finally"
        assert calls["n"] == 3
        assert [a for a, _, _ in retries] == [1, 2]
        assert all(code == "UNAVAILABLE" for _, code, _ in retries)
        # Backoff sleeps advanced the clock beyond the bare round trips.
        assert sim.now > sum(d for _, _, d in retries)

    def test_non_retryable_fails_fast(self, rpc):
        sim, service, client = rpc
        calls = {"n": 0}

        def reject(payload, trace):
            calls["n"] += 1
            yield sim.timeout(0)
            raise RpcStatusError("INVALID_ARGUMENT", "bad plan")

        service.register("reject", reject)
        policy = RetryPolicy(max_attempts=5, initial_backoff_s=0.01)
        with pytest.raises(RpcStatusError) as info:
            self._drive(sim, retrying_call(client, "reject", b"", policy))
        assert info.value.code == "INVALID_ARGUMENT"
        assert calls["n"] == 1
        assert info.value.attempts == 1

    def test_exhaustion_reports_attempts(self, rpc):
        sim, service, client = rpc

        def down(payload, trace):
            yield sim.timeout(0)
            raise RpcStatusError("UNAVAILABLE", "still down")

        service.register("down", down)
        policy = RetryPolicy(max_attempts=3, initial_backoff_s=0.01)
        with pytest.raises(RpcStatusError) as info:
            self._drive(sim, retrying_call(client, "down", b"", policy))
        assert info.value.code == "UNAVAILABLE"
        assert info.value.attempts == 3

    def test_deadline_inside_policy_retries_each_attempt(self, rpc):
        sim, service, client = rpc

        def slow(payload, trace):
            yield sim.timeout(1.0)
            return b"late"

        service.register("slow", slow)
        policy = RetryPolicy(
            max_attempts=2, initial_backoff_s=0.01, deadline_s=0.05
        )
        with pytest.raises(RpcStatusError) as info:
            self._drive(sim, retrying_call(client, "slow", b"", policy))
        assert info.value.code == "DEADLINE_EXCEEDED"
        assert info.value.attempts == 2
        assert client.deadlines_exceeded == 2


# -- stage window accounting ---------------------------------------------------


class TestStageWindows:
    """Stage windows are stage-tagged spans; totals union them per stage."""

    @staticmethod
    def _windows(*edges):
        """Replay ``(kind, stage, at)`` edges; returns the tracer's trace.

        ``kind`` is ``"begin"`` or ``"end"``; an ``end`` closes the
        oldest open window of that stage.  A root span holds the trace.
        """
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        root = tracer.start("query")
        open_windows = {}
        for kind, stage, at in edges:
            now[0] = at
            if kind == "begin":
                span = tracer.start(stage, parent=root, stage=stage)
                open_windows.setdefault(stage, []).append(span)
            elif open_windows.get(stage):
                tracer.end(open_windows[stage].pop(0))
        return tracer.trace(root=root)

    def test_single_window_charges_elapsed(self):
        trace = self._windows(("begin", "s", 1.0), ("end", "s", 3.5))
        assert stage_totals(trace, elapsed=10.0) == {"s": 2.5}

    def test_overlapping_windows_union(self):
        # Two "splits" overlap on [1, 3]; union is [0, 5], not 3 + 4.
        trace = self._windows(
            ("begin", "s", 0.0), ("begin", "s", 1.0),
            ("end", "s", 3.0), ("end", "s", 5.0),
        )
        assert stage_totals(trace, elapsed=10.0) == {"s": 5.0}

    def test_pause_and_resume(self):
        trace = self._windows(
            ("begin", "s", 0.0), ("end", "s", 2.0),
            ("begin", "s", 10.0), ("end", "s", 11.0),
        )
        assert stage_totals(trace, elapsed=20.0) == {"s": 3.0}

    def test_unmatched_end_is_noop(self):
        trace = self._windows(("end", "s", 5.0))
        assert stage_totals(trace, elapsed=10.0) == {}

    def test_open_window_is_not_charged(self):
        trace = self._windows(
            ("begin", "s", 0.0), ("end", "s", 0.5), ("begin", "s", 1.0),
        )
        assert stage_totals(trace, elapsed=10.0) == {"s": 0.5}


# -- end-to-end: faulted queries still answer correctly ------------------------


class TestEndToEndResilience:
    @pytest.fixture()
    def baseline(self, env):
        return env.run(QUERY, RunConfig.filter_only(), schema="s")

    def test_transient_failure_retried_to_success(self, env, baseline):
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(transient_storage_failures={0: 2}),
            RetryPolicy(max_attempts=5, initial_backoff_s=0.01),
        )
        result = env.run(QUERY, config, schema="s")
        assert result.batch.equals(baseline.batch)
        event = env.monitor.recent(1)[0]
        assert event.success and not event.downgraded
        assert event.attempts == 3
        assert result.metrics.value("pushdown_retries") == 2
        assert result.metrics.value("pushdown_fallback_splits") == 0
        # Backoff sleeps make the faulted run strictly slower.
        assert result.execution_seconds > baseline.execution_seconds

    def test_permanent_failure_falls_back_with_identical_results(
        self, env, baseline
    ):
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(permanent_storage_failures=frozenset({0})),
            RetryPolicy(max_attempts=3, initial_backoff_s=0.01),
        )
        result = env.run(QUERY, config, schema="s")
        # Graceful degradation: same answer, more data moved.
        assert result.batch.equals(baseline.batch)
        assert result.data_moved_bytes > baseline.data_moved_bytes
        assert result.metrics.value("pushdown_fallback_splits") == 1
        assert result.metrics.value("fallback_bytes_fetched") > 0
        event = env.monitor.recent(1)[0]
        assert not event.success
        assert event.downgraded
        assert event.attempts == 3
        assert env.monitor.total_downgrades == 1
        assert env.monitor.success_rate() < 1.0
        assert env.monitor.downgrade_rate() > 0.0

    def test_slow_node_deadline_falls_back(self, env, baseline):
        # The node answers correctly but ~1000x slower than the healthy
        # service time; a per-call deadline sized to the whole healthy
        # query abandons it on every attempt and the split degrades.
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(storage_latency_multipliers={0: 1000.0}),
            RetryPolicy(
                max_attempts=2,
                initial_backoff_s=0.01,
                deadline_s=baseline.execution_seconds,
            ),
        )
        result = env.run(QUERY, config, schema="s")
        assert result.batch.equals(baseline.batch)
        assert result.metrics.value("pushdown_fallback_splits") == 1
        event = env.monitor.recent(1)[0]
        assert event.downgraded and event.attempts == 2

    def test_link_drops_retried_to_success(self, env, baseline):
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(link_drop_probability=0.25, seed=7),
            RetryPolicy(max_attempts=10, initial_backoff_s=0.005),
        )
        result = env.run(QUERY, config, schema="s")
        assert result.batch.equals(baseline.batch)

    def test_faulted_runs_are_deterministic(self, env):
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(link_drop_probability=0.25, seed=7),
            RetryPolicy(max_attempts=10, initial_backoff_s=0.005),
        )
        a = env.run(QUERY, config, schema="s")
        b = env.run(QUERY, config, schema="s")
        assert a.execution_seconds == b.execution_seconds
        assert a.stage_seconds == b.stage_seconds
        assert a.batch.equals(b.batch)

    def test_all_off_faultspec_matches_healthy_run(self, env, baseline):
        # A present-but-empty injector must not perturb timing: the
        # Figure 5 numbers with faults disabled stay bit-identical.
        config = _faulted(
            RunConfig.filter_only(), FaultSpec(), RetryPolicy()
        )
        result = env.run(QUERY, config, schema="s")
        assert result.execution_seconds == baseline.execution_seconds
        assert result.stage_seconds == baseline.stage_seconds
        assert result.data_moved_bytes == baseline.data_moved_bytes
        assert result.batch.equals(baseline.batch)

    def test_fallback_fetches_raw_objects(self, env):
        descriptor = env.metastore.get_table("s", "t")
        object_bytes = sum(
            len(env.store.get_object("b", key)) for key in descriptor.files
        )
        config = _faulted(
            RunConfig.filter_only(),
            FaultSpec(permanent_storage_failures=frozenset({0})),
            RetryPolicy(max_attempts=2, initial_backoff_s=0.01),
        )
        result = env.run(QUERY, config, schema="s")
        assert result.metrics.value("fallback_bytes_fetched") == object_bytes
