"""Multi-tenant query service: admission, scheduling, SLOs, determinism."""

import dataclasses

import pytest

from repro.analysis.determinism import DigestRecorder
from repro.bench.env import Environment, RunConfig
from repro.client import connect
from repro.config import FaultSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.engine.scheduler import SchedulerSpec
from repro.errors import (
    ConfigError,
    MemoryBudgetError,
    QueueFullError,
    QueueTimeoutError,
    ReproError,
    TenantLimitError,
)
from repro.service import (
    JobStatus,
    QueryService,
    QueryTemplate,
    closed_loop,
    open_loop,
)
from repro.service.service import _config_key
from repro.trace import MAX_TRACES
from repro.trace import tracer as tracer_module
from repro.workloads.datasets import DatasetSpec
from repro.workloads.laghos import LAGHOS_QUERY, generate_laghos_file
from repro.workloads.tpch import TPCH_Q1, generate_lineitem


def _build_env() -> Environment:
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="tpch",
            file_count=2,
            generator=lambda i: generate_lineitem(2_000, seed=7 + i),
        )
    )
    env.add_dataset(
        DatasetSpec(
            schema_name="hpc",
            table_name="laghos",
            bucket="hpc",
            file_count=2,
            generator=lambda i: generate_laghos_file(1_024, i, seed=11),
        )
    )
    return env


@pytest.fixture(scope="module")
def service_env():
    """Shared datasets; each test builds its own service (own cluster)."""
    return _build_env()


MIXED_TEMPLATES = (
    QueryTemplate(tenant="analytics", sql=TPCH_Q1, schema="tpch", label="q1"),
    QueryTemplate(tenant="hpc", sql=LAGHOS_QUERY, schema="hpc", label="laghos"),
)


def _assert_lifecycle_spans_match(handle) -> None:
    """The query's own trace times it exactly as its job record does:
    the ``service.query`` root spans the latency, its ``queue`` child
    the queue wait."""
    trace = handle.result().trace
    root = trace.root()
    (queue,) = [s for s in trace.children(root) if s.name == "queue"]
    assert root.name == "service.query"
    assert root.attributes["status"] == str(JobStatus.SUCCEEDED)
    assert root.duration == handle.latency_seconds
    assert queue.duration == handle.queue_wait_seconds


class TestSpec:
    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigError):
            ServiceSpec(policy="priority")

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ConfigError):
            ServiceSpec(max_active_queries=0)
        with pytest.raises(ConfigError):
            ServiceSpec(max_queue_depth=-1)

    def test_rejects_submission_in_the_past(self, service_env):
        service = QueryService(service_env, ServiceSpec())
        with pytest.raises(ConfigError):
            service.submit(TPCH_Q1, schema="tpch", at=-1.0)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("rewrite", False),
            ("faults", FaultSpec(transient_storage_failures={0: 1})),
            ("scheduler", SchedulerSpec(speculation=True)),
            ("strict_sanitize", False),
        ],
    )
    def test_rejects_a_job_config_the_shared_cluster_cannot_honour(
        self, service_env, field, value
    ):
        service = QueryService(service_env, ServiceSpec())
        config = dataclasses.replace(RunConfig(label="job", mode="ocs"), **{field: value})
        with pytest.raises(ConfigError, match=field):
            service.submit(TPCH_Q1, schema="tpch", config=config)
        assert service.jobs == []

    def test_a_scalar_subquery_job_cannot_switch_the_rewriter_off(self, service_env):
        # Under env.run the statement fails to analyze with the rewriter
        # off; the service must refuse the job rather than run it with
        # the rewriter on.
        sql = (
            "SELECT COUNT(*) AS n FROM lineitem "
            "WHERE quantity > (SELECT AVG(quantity) FROM lineitem)"
        )
        config = RunConfig(label="plain", mode="ocs", rewrite=False)
        with pytest.raises(ReproError):
            service_env.run(sql, config, schema="tpch")
        service = QueryService(service_env, ServiceSpec())
        with pytest.raises(ConfigError, match="rewrite"):
            service.submit(sql, schema="tpch", config=config)
        # A service whose base config has the rewriter off honours it.
        plain = QueryService(service_env, ServiceSpec(), base_config=config)
        handle = plain.submit(sql, schema="tpch", config=config)
        plain.drain()
        with pytest.raises(ReproError):
            handle.result()


class TestAdmission:
    def test_queue_full_rejected_with_documented_code(self, service_env):
        spec = ServiceSpec(max_active_queries=1, max_queue_depth=2)
        service = QueryService(service_env, spec)
        handles = [
            service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
            for _ in range(5)
        ]
        service.drain()
        statuses = [h.status() for h in handles]
        # 1 dispatches immediately, 2 fit the queue, 2 bounce.
        assert statuses.count(str(JobStatus.REJECTED)) == 2
        rejected = [h for h in handles if h.status() == str(JobStatus.REJECTED)]
        error = rejected[0].exception()
        assert isinstance(error, QueueFullError)
        assert error.code == "ADMISSION_QUEUE_FULL"
        with pytest.raises(QueueFullError):
            rejected[0].result()
        # Everything admitted ran to completion.
        assert statuses.count(str(JobStatus.SUCCEEDED)) == 3

    def test_immediate_dispatch_bypasses_queue_bound(self, service_env):
        # An idle service with a zero-length queue still runs one query:
        # the bound applies to waiting, not to starting.
        spec = ServiceSpec(max_active_queries=1, max_queue_depth=0)
        service = QueryService(service_env, spec)
        handle = service.submit(TPCH_Q1, schema="tpch")
        assert handle.result().rows > 0

    def test_tenant_inflight_limit(self, service_env):
        spec = ServiceSpec(per_tenant_max_inflight=1, max_queue_depth=8)
        service = QueryService(service_env, spec)
        handles = [
            service.submit(TPCH_Q1, tenant="greedy", schema="tpch", at=0.0)
            for _ in range(3)
        ]
        other = service.submit(TPCH_Q1, tenant="patient", schema="tpch", at=0.0)
        service.drain()
        codes = [
            h.exception().code for h in handles if h.exception() is not None
        ]
        assert codes == ["ADMISSION_TENANT_LIMIT"] * 2
        assert isinstance(
            next(h.exception() for h in handles if h.exception()), TenantLimitError
        )
        # The limit is per tenant: another tenant is unaffected.
        assert other.status() == str(JobStatus.SUCCEEDED)

    def test_tenant_memory_budget(self, service_env):
        spec = ServiceSpec(
            per_tenant_memory_bytes=100,
            default_query_memory_bytes=60,
            max_queue_depth=8,
        )
        service = QueryService(service_env, spec)
        first = service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
        second = service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
        small = service.submit(
            TPCH_Q1, tenant="t", schema="tpch", at=0.0, memory_bytes=40
        )
        service.drain()
        assert first.status() == str(JobStatus.SUCCEEDED)
        error = second.exception()
        assert isinstance(error, MemoryBudgetError)
        assert error.code == "ADMISSION_MEMORY_BUDGET"
        # 60 + 40 fits the 100-byte budget.
        assert small.status() == str(JobStatus.SUCCEEDED)

    def test_queue_timeout(self, service_env):
        spec = ServiceSpec(
            max_active_queries=1, max_queue_depth=8, queue_timeout_s=1e-5
        )
        service = QueryService(service_env, spec)
        handles = [
            service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
            for _ in range(3)
        ]
        service.drain()
        assert handles[0].status() == str(JobStatus.SUCCEEDED)
        for handle in handles[1:]:
            assert handle.status() == str(JobStatus.TIMED_OUT)
            error = handle.exception()
            assert isinstance(error, QueueTimeoutError)
            assert error.code == "ADMISSION_QUEUE_TIMEOUT"


class TestScheduling:
    @staticmethod
    def _two_tenant_throughput(env, policy):
        spec = ServiceSpec(max_active_queries=1, max_queue_depth=64, policy=policy)
        service = QueryService(env, spec)
        for _ in range(6):
            service.submit(TPCH_Q1, tenant="alpha", schema="tpch", at=0.0)
        for _ in range(6):
            service.submit(TPCH_Q1, tenant="beta", schema="tpch", at=0.0)
        report = service.report()
        return (
            report.tenant("alpha").throughput_qps,
            report.tenant("beta").throughput_qps,
        )

    def test_fair_share_gives_identical_tenants_equal_throughput(self, service_env):
        alpha, beta = self._two_tenant_throughput(service_env, "fair")
        assert alpha > 0 and beta > 0
        assert abs(alpha - beta) / max(alpha, beta) < 0.15

    def test_fifo_lets_the_first_burst_monopolize(self, service_env):
        # Contrast case: under FIFO, alpha's burst (submitted first) runs
        # ahead of beta's, so alpha's completions pack into the first
        # half of the makespan — roughly double beta's throughput.
        alpha, beta = self._two_tenant_throughput(service_env, "fifo")
        assert alpha / beta > 1.5

    def test_concurrent_queries_interleave(self, service_env):
        # With 2 slots, two queries submitted together overlap in
        # simulated time: total makespan < sum of solo latencies.
        spec = ServiceSpec(max_active_queries=2)
        service = QueryService(service_env, spec)
        a = service.submit(TPCH_Q1, tenant="a", schema="tpch", at=0.0)
        b = service.submit(LAGHOS_QUERY, tenant="b", schema="hpc", at=0.0)
        report = service.report()
        solo = a.latency_seconds + b.latency_seconds
        assert report.makespan_s < solo
        assert a.status() == b.status() == str(JobStatus.SUCCEEDED)

    def test_backpressure_defers_but_completes(self, service_env):
        spec = ServiceSpec(
            max_active_queries=4,
            max_queue_depth=32,
            backpressure_queue_depth=1,
            backpressure_poll_s=1e-4,
        )
        service = QueryService(service_env, spec)
        handles = [
            service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
            for _ in range(4)
        ]
        service.drain()
        assert all(h.status() == str(JobStatus.SUCCEEDED) for h in handles)


class TestIsolation:
    def test_sequential_queries_have_scoped_metrics_and_traces(self, service_env):
        # Two queries on ONE shared cluster must not leak counters,
        # stage windows, or span roots into each other.
        spec = ServiceSpec(max_active_queries=1)
        service = QueryService(service_env, spec)
        h1 = service.submit(TPCH_Q1, tenant="t", schema="tpch")
        h2 = service.submit(TPCH_Q1, tenant="t", schema="tpch")
        service.drain()
        r1, r2 = h1.result(), h2.result()
        assert r1.metrics is not r2.metrics
        assert r1.metrics.value("splits") == r2.metrics.value("splits")
        assert r1.metrics.value("bytes_received") == r2.metrics.value(
            "bytes_received"
        )
        assert r1.stage_seconds.keys() == r2.stage_seconds.keys()
        assert r1.trace is not None and r2.trace is not None
        assert r1.trace.root().trace_id != r2.trace.root().trace_id

    def test_monitor_reset_clears_shared_window(self, service_env):
        monitor = service_env.monitor
        service_env.run(
            TPCH_Q1, RunConfig(label="ocs", mode="ocs"), schema="tpch"
        )
        assert monitor.total_events > 0
        monitor.reset()
        assert monitor.total_events == 0
        assert len(monitor) == 0

    def test_consecutive_environment_runs_identical(self, service_env):
        config = RunConfig(label="ocs", mode="ocs")
        first = service_env.run(TPCH_Q1, config, schema="tpch")
        second = service_env.run(TPCH_Q1, config, schema="tpch")
        assert first.execution_seconds == second.execution_seconds
        assert first.metrics.snapshot() == second.metrics.snapshot()
        assert first.batch.approx_equals(second.batch)


class TestConnectorIdentity:
    """One connector per distinct connector-level config on a service."""

    def test_every_policy_field_is_part_of_the_key(self):
        # The key once listed policy fields by hand and missed
        # ``dynamic_filters``: a static and a dynamic config shared whichever
        # connector was built first.
        changed = {
            "enabled": frozenset({"filter"}),
            "use_statistics": True,
            "filter_selectivity_threshold": 0.5,
            "aggregation_selectivity_threshold": 0.25,
            "distribution": "uniform",
            "dynamic_filters": True,
        }
        assert set(changed) == {f.name for f in dataclasses.fields(PushdownPolicy)}
        base = RunConfig(label="base", mode="ocs", policy=PushdownPolicy())
        keys = {_config_key(base)}
        for name, value in changed.items():
            policy = dataclasses.replace(PushdownPolicy(), **{name: value})
            keys.add(_config_key(RunConfig(label=name, mode="ocs", policy=policy)))
        assert len(keys) == 1 + len(changed)
        # The label stays cosmetic, and the key is a tuple of sorted scalars.
        assert _config_key(dataclasses.replace(base, label="other")) == _config_key(base)
        assert repr(_config_key(base)).count("frozenset") == 0

    def test_static_and_dynamic_filter_configs_get_their_own_connector(self, service_env):
        service = QueryService(service_env, ServiceSpec())
        static = RunConfig.ocs("static", "filter")
        dynamic = RunConfig.ocs("dynamic", "filter", dynamic_filters=True)
        for config in (static, dynamic, static):
            service.submit(TPCH_Q1, tenant="t", schema="tpch", config=config)
        service.drain()
        assert len(service._catalogs) == 2
        connectors = [service.coordinator.catalogs[name] for name in service._catalogs.values()]
        assert [c.policy.dynamic_filters for c in connectors] == [False, True]


class TestDeterminism:
    @staticmethod
    def _replay(seed):
        recorder = DigestRecorder()
        spec = ServiceSpec(max_active_queries=3, max_queue_depth=6, policy="fair")
        service = QueryService(_build_env(), spec, observer=recorder)
        open_loop(
            service,
            MIXED_TEMPLATES,
            queries=32,
            mean_interarrival_s=0.002,
            seed=seed,
        )
        report = service.report()
        return recorder.final_digest, report.digest(), report

    def test_32_query_mixed_workload_replays_digest_identical(self):
        events_a, digest_a, report = self._replay(0)
        events_b, digest_b, _ = self._replay(0)
        assert events_a == events_b
        assert digest_a == digest_b
        assert len(report.queries) == 32
        assert {t.tenant for t in report.tenants} == {"analytics", "hpc"}
        assert report.completed > 0
        # The open-loop rate is tuned to overrun the queue bound: the
        # acceptance run must show admission rejections at capacity.
        rejections = {
            code
            for tenant in report.tenants
            for code in tenant.rejections_by_code
        }
        assert "ADMISSION_QUEUE_FULL" in rejections

    def test_different_seed_changes_schedule(self):
        _, digest_a, _ = self._replay(0)
        _, digest_b, _ = self._replay(1)
        assert digest_a != digest_b


class TestLoadgen:
    def test_open_loop_requires_templates_and_rate(self, service_env):
        service = QueryService(service_env, ServiceSpec())
        with pytest.raises(ConfigError):
            open_loop(service, [], queries=1, mean_interarrival_s=0.1, seed=0)
        with pytest.raises(ConfigError):
            open_loop(
                service, MIXED_TEMPLATES, queries=1, mean_interarrival_s=0.0, seed=0
            )

    def test_closed_loop_self_limits_concurrency(self, service_env):
        # One client per template, no think time: at most len(templates)
        # queries are ever in flight, so nothing queues or bounces.
        spec = ServiceSpec(max_active_queries=2, max_queue_depth=1)
        service = QueryService(service_env, spec)
        handles = closed_loop(
            service, MIXED_TEMPLATES, queries_per_client=3
        )
        service.drain()
        assert len(handles) == 6
        assert all(h.status() == str(JobStatus.SUCCEEDED) for h in handles)
        assert all(h.queue_wait_seconds == 0.0 for h in handles)


class TestReporting:
    def test_slo_breakdown_sums_to_latency(self, service_env):
        spec = ServiceSpec(max_active_queries=1)
        service = QueryService(service_env, spec)
        for _ in range(3):
            service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
        report = service.report()
        for stat in report.queries:
            assert stat.queue_wait_s + stat.execution_s == pytest.approx(
                stat.latency_s, abs=1e-12
            )
        text = report.format()
        assert "p50" in text and "tenant" in text

    def test_lifecycle_spans_match_job_records(self, service_env):
        spec = ServiceSpec(max_active_queries=2)
        service = QueryService(service_env, spec)
        handles = [
            service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
            for _ in range(3)
        ]
        service.drain()
        # The third query waited for a slot, so the queue span is not empty.
        assert handles[2].queue_wait_seconds > 0
        for handle in handles:
            _assert_lifecycle_spans_match(handle)

    def test_failed_query_counts_in_report_and_tenant_row(self, service_env):
        service = QueryService(service_env, ServiceSpec())
        service.submit(TPCH_Q1, tenant="t", schema="tpch", at=0.0)
        bad = service.submit(
            "SELECT no_such_column FROM lineitem", tenant="t", schema="tpch", at=0.0
        )
        report = service.report()
        assert bad.status() == str(JobStatus.FAILED)
        assert (report.completed, report.failed) == (1, 1)
        tenant = report.tenant("t")
        assert (tenant.submitted, tenant.completed, tenant.failed) == (2, 1, 1)
        assert tenant.rejected == tenant.timed_out == 0
        assert "failed: 1" in report.format()

    def test_per_tenant_driver_seconds_attributed(self, service_env):
        spec = ServiceSpec(max_active_queries=2)
        service = QueryService(service_env, spec)
        service.submit(TPCH_Q1, tenant="analytics", schema="tpch", at=0.0)
        service.submit(LAGHOS_QUERY, tenant="hpc", schema="hpc", at=0.0)
        report = service.report()
        for tenant in report.tenants:
            assert tenant.scan_driver_seconds > 0


class TestTraceRetention:
    """The service's one long-lived tracer is a ring of MAX_TRACES traces."""

    @staticmethod
    def _serve(service_env, queries: int, active: int):
        service = QueryService(
            service_env,
            ServiceSpec(max_active_queries=active, max_queue_depth=queries),
        )
        handles = [
            service.submit(LAGHOS_QUERY, tenant="t", schema="hpc", at=0.0)
            for _ in range(queries)
        ]
        service.drain()
        return service, handles

    def test_serving_more_than_n_queries_retains_at_most_n_traces(self, service_env):
        service, handles = self._serve(service_env, MAX_TRACES + 6, active=4)
        spans = service.cluster.tracer.spans()
        assert len({s.trace_id for s in spans}) == MAX_TRACES
        assert [s.span_id for s in spans] == sorted(s.span_id for s in spans)
        # The evicted ones are the oldest.
        evicted = handles[0].result().trace.root().trace_id
        assert evicted not in {s.trace_id for s in spans}

    def test_open_roots_are_never_evicted_and_handed_out_traces_stay_whole(
        self, service_env, monkeypatch
    ):
        # A ring smaller than the concurrency: every submission's root is
        # open (queued or running) while far more than N traces are held.
        monkeypatch.setattr(tracer_module, "MAX_TRACES", 2)
        service, handles = self._serve(service_env, 12, active=4)
        assert len({s.trace_id for s in service.cluster.tracer.spans()}) == 2
        for handle in handles:
            trace = handle.result().trace
            # A root evicted while open would leave its children orphaned.
            trace.validate()
            assert [s.name for s in trace.roots()] == ["service.query"]
            assert len(trace.find("queue")) == 1 and len(trace.find("query")) == 1

    def test_breakdown_of_the_retained_traces_matches_the_job_records(
        self, service_env
    ):
        service, handles = self._serve(service_env, MAX_TRACES + 6, active=4)
        retained = {s.trace_id for s in service.cluster.tracer.spans()}
        kept = [
            handle for handle in handles
            if handle.result().trace.root().trace_id in retained
        ]
        assert len(kept) == MAX_TRACES
        for handle in kept:
            _assert_lifecycle_spans_match(handle)


class TestClientFacade:
    @staticmethod
    def _client():
        client = connect(service=ServiceSpec(max_active_queries=2))
        client.register_dataset(
            DatasetSpec(
                schema_name="tpch",
                table_name="lineitem",
                bucket="tpch",
                file_count=2,
                generator=lambda i: generate_lineitem(2_000, seed=7 + i),
            )
        )
        return client

    def test_submit_gather_matches_execute(self):
        client = self._client()
        reference = client.execute(TPCH_Q1)
        h1 = client.submit(TPCH_Q1, tenant="a")
        h2 = client.submit(TPCH_Q1, tenant="b")
        results = client.gather(h1, h2)
        assert all(r.batch.approx_equals(reference.batch) for r in results)
        assert h1.done and h2.done
        report = client.service_report()
        assert report.completed == 2

    def test_repro_reexports(self):
        import repro

        assert repro.QueryHandle.__name__ == "QueryHandle"
        assert repro.QueryService.__name__ == "QueryService"
        assert repro.ServiceSpec.__name__ == "ServiceSpec"
        assert repro.QueryTemplate.__name__ == "QueryTemplate"
