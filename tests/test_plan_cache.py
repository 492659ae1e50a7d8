"""The plan tier: a repeated statement skips planning and Substrait generation.

A hit is charged one cache lookup instead of the local optimizer's and
the page sources' generation charges; it must answer exactly as the
planned run did, and it must miss whenever anything that shaped the
plan changed — a scanned object, the table's statistics, the pushdown
identity, the session — or when the plan depends on run-time results.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.translator as translator
import repro.engine.coordinator as coordinator
from repro.analysis.determinism import canonical_result_digest
from repro.bench.env import Environment, RunConfig
from repro.cache.manager import PLAN_BUDGET_BYTES
from repro.config import CacheSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.engine.stages import STAGE_ANALYSIS, STAGE_SUBSTRAIT
from repro.service import QueryService
from repro.workloads import TPCH_Q3
from repro.workloads.datasets import DatasetSpec
from repro.workloads.tpch import generate_lineitem

SQL = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.03 "
    "GROUP BY returnflag ORDER BY returnflag"
)
SCALAR = (
    "SELECT COUNT(*) AS n FROM lineitem "
    "WHERE extendedprice > (SELECT AVG(extendedprice) FROM lineitem)"
)
CTE = (
    "WITH big AS (SELECT orderkey, SUM(quantity) AS q FROM lineitem GROUP BY orderkey) "
    "SELECT COUNT(*) AS n FROM big WHERE q > 100.0"
)

#: The plan tier alone: every run past planning executes in full.
PLANS_ONLY = CacheSpec(result_budget_bytes=0, split_budget_bytes=0, storage_budget_bytes=0)
ALL_OPS = RunConfig(label="all", mode="ocs", cache=PLANS_ONLY)


def _build_env(files: int = 3, rows: int = 4_000, schemas=("tpch",)) -> Environment:
    env = Environment()
    for index, schema in enumerate(schemas):
        env.add_dataset(
            DatasetSpec(
                schema_name=schema,
                table_name="lineitem",
                bucket=f"data-{schema}",
                file_count=files,
                generator=lambda i, seed=5 + index: generate_lineitem(
                    rows, seed=seed, start_row=i * rows
                ),
            )
        )
    return env


def _plan_lookups(result):
    """The plan-tier lookup spans of a run, in start order."""
    return [
        span for span in result.trace
        if span.name == "cache-lookup" and span.attributes.get("tier") == "plan"
    ]


def _outcome(result) -> bool:
    """Whether the run's own (outermost) statement hit the plan tier."""
    return _plan_lookups(result)[0].attributes["hit"]


class _Calls:
    """Counts calls of a module-level function the run path looks up."""

    def __init__(self, monkeypatch, module, name):
        self.count = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


class TestHit:
    def test_hit_skips_planning_and_generation(self, monkeypatch):
        env = _build_env()
        miss = env.run(SQL, ALL_OPS, "tpch")
        parses = _Calls(monkeypatch, coordinator, "parse")
        builds = _Calls(monkeypatch, translator, "build_pushdown_plan")
        serializes = _Calls(monkeypatch, translator, "serialize_plan")
        hit = env.run(SQL, ALL_OPS, "tpch")

        assert (_outcome(miss), _outcome(hit)) == (False, True)
        assert hit.metrics.value("plan_cache_hits") == 1
        assert (parses.count, builds.count, serializes.count) == (0, 0, 0)
        assert canonical_result_digest(hit.batch) == canonical_result_digest(miss.batch)
        assert hit.plan_before == miss.plan_before
        assert hit.plan_after == miss.plan_after
        # No local-opt and no substrait-gen charge: both stages vanish.
        assert miss.stage_seconds[STAGE_ANALYSIS] > 0
        assert miss.stage_seconds[STAGE_SUBSTRAIT] > 0
        assert hit.stage_seconds.get(STAGE_ANALYSIS, 0.0) == 0.0
        assert hit.stage_seconds.get(STAGE_SUBSTRAIT, 0.0) == 0.0
        assert not [s for s in hit.trace if s.name == "substrait.generate"]
        saved = miss.stage_seconds[STAGE_ANALYSIS] + miss.stage_seconds[STAGE_SUBSTRAIT]
        assert hit.execution_seconds == pytest.approx(
            miss.execution_seconds - saved, rel=1e-12
        )
        # The same decisions and the same IR bytes are counted either way.
        for counter in ("pushdown_operators", "substrait_plan_bytes", "splits"):
            assert hit.metrics.value(counter) == miss.metrics.value(counter) > 0

    def test_miss_builds_once_per_branch(self, monkeypatch):
        # Every tier on: lowering fingerprints the pushed plan for the
        # result and split keys, and the plan-tier fill and every split
        # (one per file) reuse that plan and its bytes.
        config = RunConfig(
            label="all", mode="ocs", cache=CacheSpec(), split_granularity="file"
        )
        env = _build_env()
        builds = _Calls(monkeypatch, translator, "build_pushdown_plan")
        serializes = _Calls(monkeypatch, translator, "serialize_plan")
        miss = env.run(SQL, config, "tpch")
        assert not _outcome(miss) and miss.splits > 1
        assert (builds.count, serializes.count) == (1, 1)
        # Each split still pays its own generation charge.
        spans = [s for s in miss.trace.spans if s.name == "substrait.generate"]
        assert len(spans) == miss.splits

    def test_every_lookup_is_charged_once(self):
        env = _build_env()
        costs = env.costs
        hz = env.testbed.compute.clock_ghz * 1e9 * env.testbed.compute.ipc_efficiency
        off = env.run(SQL, RunConfig(label="off", mode="ocs"), "tpch")
        miss = env.run(SQL, ALL_OPS, "tpch")
        assert not _plan_lookups(off)
        assert miss.execution_seconds == pytest.approx(
            off.execution_seconds + costs.cache_lookup_cycles / hz, rel=1e-12
        )

    def test_hit_takes_fingerprints_from_the_entry(self, small_env, monkeypatch):
        from repro.substrait import fingerprint

        # Result and split tiers on, so lowering needs every branch's
        # fingerprint.  The module's environment is shared: start cold.
        config = RunConfig(
            label="full", mode="ocs", policy=PushdownPolicy.all_operators(),
            cache=CacheSpec(storage_budget_bytes=0),
        )
        small_env.cache_manager(config.cache).clear()
        small_env.run(TPCH_Q3, config, schema="tpch")
        calls = _Calls(monkeypatch, fingerprint, "fingerprint_plan")
        result = small_env.run(TPCH_Q3, config, schema="tpch")
        assert _outcome(result) is True
        assert calls.count == 0

    def test_whitespace_and_comments_share_an_entry_literals_do_not(self):
        env = _build_env()
        env.run(SQL, ALL_OPS, "tpch")
        spaced = "  " + SQL.replace(" FROM", "\n  -- a comment\n  FROM") + "\n"
        assert _outcome(env.run(spaced, ALL_OPS, "tpch")) is True
        literal = "SELECT COUNT(*) AS n FROM lineitem WHERE returnflag = 'A  '"
        env.run(literal, ALL_OPS, "tpch")
        other = env.run(literal.replace("'A  '", "'A '"), ALL_OPS, "tpch")
        assert _outcome(other) is False

    def test_default_budget_holds_two_hundred_entries(self):
        env = _build_env()
        spec = CacheSpec()
        config = RunConfig(label="default", mode="ocs", cache=spec)
        env.run(SQL, config, "tpch")
        tier = env.cache_manager(spec).plans
        assert len(tier) == 1
        assert PLAN_BUDGET_BYTES // tier.resident_bytes >= 200


class TestInvalidation:
    def test_reput_of_a_scanned_object_misses(self):
        env = _build_env()
        env.run(SQL, ALL_OPS, "tpch")
        descriptor = env.metastore.get_table("tpch", "lineitem")
        key = descriptor.files[1]
        env.store.put_object(
            descriptor.bucket, key, env.store.get_object(descriptor.bucket, key)
        )
        assert _outcome(env.run(SQL, ALL_OPS, "tpch")) is False
        assert env.cache_manager(PLANS_ONLY).plans.stats.stale_drops == 1
        assert _outcome(env.run(SQL, ALL_OPS, "tpch")) is True

    def test_stats_refresh_misses(self):
        env = _build_env()
        env.run(SQL, ALL_OPS, "tpch")
        env.metastore.get_table("tpch", "lineitem").bump_version()
        assert _outcome(env.run(SQL, ALL_OPS, "tpch")) is False
        assert _outcome(env.run(SQL, ALL_OPS, "tpch")) is True

    def test_reingested_table_answers_with_the_new_data(self):
        env = _build_env(rows=2_000)
        before = env.run(SQL, ALL_OPS, "tpch")
        env.add_dataset(
            DatasetSpec(
                schema_name="tpch", table_name="lineitem", bucket="data-tpch",
                file_count=2,
                generator=lambda i: generate_lineitem(3_000, seed=99, start_row=i * 3_000),
            )
        )
        after = env.run(SQL, ALL_OPS, "tpch")
        fresh = env.run(SQL, RunConfig(label="none", mode="ocs"), "tpch")
        assert _outcome(after) is False
        assert canonical_result_digest(after.batch) == canonical_result_digest(fresh.batch)
        assert canonical_result_digest(after.batch) != canonical_result_digest(before.batch)

    @pytest.mark.parametrize(
        "variant",
        [
            pytest.param({"policy": PushdownPolicy.filter_only()}, id="policy"),
            pytest.param({"mode": "hive-raw"}, id="mode"),
            pytest.param({"split_granularity": "file"}, id="split-granularity"),
            pytest.param({"rewrite": False}, id="rewrite"),
            pytest.param(
                {"policy": PushdownPolicy(dynamic_filters=True)}, id="dynamic-filters"
            ),
        ],
    )
    def test_a_different_pushdown_identity_misses(self, variant):
        env = _build_env()
        env.run(SQL, ALL_OPS, "tpch")
        other = env.run(SQL, dataclasses.replace(ALL_OPS, **variant), "tpch")
        assert _outcome(other) is False
        assert _outcome(env.run(SQL, ALL_OPS, "tpch")) is True

    def test_a_different_schema_misses(self):
        env = _build_env(schemas=("tpch", "tpch2"))
        first = env.run(SQL, ALL_OPS, "tpch")
        second = env.run(SQL, ALL_OPS, "tpch2")
        assert _outcome(second) is False
        direct = env.run(SQL, RunConfig(label="none", mode="ocs"), "tpch2")
        assert canonical_result_digest(second.batch) == canonical_result_digest(direct.batch)
        assert canonical_result_digest(second.batch) != canonical_result_digest(first.batch)


class TestNeverServed:
    @pytest.mark.parametrize("sql", [SCALAR, CTE], ids=["scalar-subquery", "cte"])
    def test_statements_with_run_time_results_never_hit(self, sql):
        env = _build_env()
        first = env.run(sql, ALL_OPS, "tpch")
        second = env.run(sql, ALL_OPS, "tpch")
        assert (_outcome(first), _outcome(second)) == (False, False)
        assert canonical_result_digest(first.batch) == canonical_result_digest(second.batch)

    def test_dynamic_filter_gated_plans_never_hit(self, small_env):
        dynamic = RunConfig(
            label="dynamic", mode="ocs",
            policy=PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True),
            cache=PLANS_ONLY,
        )
        static = dataclasses.replace(
            dynamic, policy=PushdownPolicy(enabled=frozenset({"filter"}))
        )
        small_env.cache_manager(PLANS_ONLY).clear()  # a shared environment
        runs = [small_env.run(TPCH_Q3, config, schema="tpch")
                for config in (dynamic, dynamic, static, static)]
        assert [_outcome(run) for run in runs] == [False, False, False, True]
        # The gated scan generates its Substrait (Bloom conjunct and all)
        # on every execution.
        assert [s for s in runs[1].trace if s.name == "substrait.generate"]
        digests = {canonical_result_digest(run.batch) for run in runs}
        assert len(digests) == 1


class TestService:
    def _two_at_once(self, tie_break: str):
        env = _build_env(files=2, rows=2_000)
        service = QueryService(
            env, ServiceSpec(max_active_queries=4),
            base_config=RunConfig(label="svc", mode="ocs", cache=PLANS_ONLY),
            tie_break=tie_break,
        )
        first = service.submit(SQL, schema="tpch", tenant="a", at=0.0)
        second = service.submit(SQL, schema="tpch", tenant="b", at=0.0)
        later = service.submit(SQL, schema="tpch", tenant="b", at=1.0)
        report = service.report()
        return service, [first, second, later], report

    def test_concurrent_submissions_fill_deterministically(self):
        # Both same-instant submissions miss and fill one key; the later
        # one hits.
        service, handles, report = self._two_at_once("fifo")
        assert [_outcome(h.result()) for h in handles] == [False, False, True]
        stats = service.cache.plans.stats
        assert (stats.fills, stats.hits, len(service.cache.plans)) == (2, 1, 1)
        assert self._two_at_once("fifo")[2].digest() == report.digest()
        # The LIFO tie-break reproduces the whole SLO digest, timings
        # included: the lookup adds no same-instant hop that would let the
        # two arrivals trade places.
        service, handles, lifo = self._two_at_once("lifo")
        assert [_outcome(h.result()) for h in handles] == [False, False, True]
        assert service.cache.plans.stats == stats
        assert lifo.digest() == report.digest()
        assert len({canonical_result_digest(h.result().batch) for h in handles}) == 1

    def test_result_tier_keeps_tied_submissions_in_order(self):
        # With every tier on, the two same-instant statements also miss
        # the result tier; that lookup must add no same-instant hop either.
        def run(tie_break: str):
            service = QueryService(
                _build_env(files=2, rows=2_000), ServiceSpec(max_active_queries=4),
                base_config=RunConfig(label="svc", mode="ocs", cache=CacheSpec()),
                tie_break=tie_break,
            )
            handles = [
                service.submit(SQL, schema="tpch", tenant=tenant, at=0.0)
                for tenant in ("a", "b")
            ]
            results = [h.result() for h in handles]
            for result in results:
                (lookup,) = [
                    span for span in result.trace
                    if span.name == "cache-lookup"
                    and span.attributes.get("tier") == "result"
                ]
                assert lookup.attributes["hit"] is False
            return [r.execution_seconds for r in results], service.report()

        fifo_latencies, fifo = run("fifo")
        lifo_latencies, lifo = run("lifo")
        assert fifo_latencies[0] != fifo_latencies[1]
        assert lifo_latencies == fifo_latencies
        assert lifo.digest() == fifo.digest()
