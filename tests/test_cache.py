"""Hybrid result/page cache: budget mechanics, partial-hit hybrid plans,
versioned invalidation, per-query counters, and cached-run determinism."""

from repro.analysis.determinism import canonical_result_digest
from repro.bench.env import Environment, RunConfig
from repro.cache.budget import ByteBudgetCache
from repro.config import CacheSpec, ServiceSpec
from repro.core import PushdownPolicy
from repro.service import QueryService
from repro.workloads.datasets import DatasetSpec
from repro.workloads.tpch import generate_lineitem

SQL = (
    "SELECT returnflag, SUM(extendedprice) AS s, COUNT(*) AS n "
    "FROM lineitem WHERE discount > 0.03 "
    "GROUP BY returnflag ORDER BY returnflag"
)


def _build_env(files: int = 3, rows: int = 4_000) -> Environment:
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="tpch",
            table_name="lineitem",
            bucket="data",
            file_count=files,
            generator=lambda i: generate_lineitem(rows, seed=5, start_row=i * rows),
        )
    )
    return env


def _config(cache, **kwargs) -> RunConfig:
    return RunConfig(
        label="cache-test",
        mode="ocs",
        policy=PushdownPolicy.filter_only(),
        split_granularity="file",
        cache=cache,
        **kwargs,
    )


class TestByteBudgetCache:
    def test_lru_evicts_least_recently_used(self):
        cache = ByteBudgetCache(100)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        assert cache.get("a") == 1  # bump a's recency
        cache.put("c", 3, nbytes=40)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_evicted == 40

    def test_oversized_fill_refused(self):
        cache = ByteBudgetCache(100)
        assert not cache.put("huge", 1, nbytes=200)
        assert len(cache) == 0
        assert cache.stats.quota_refusals == 1

    def test_one_fill_evicts_the_oldest_entries_until_it_fits(self):
        cache = ByteBudgetCache(100)
        cache.put("a", 1, nbytes=30)
        cache.put("b", 2, nbytes=30)
        cache.put("c", 3, nbytes=30)
        assert cache.get("a") == 1  # a is now the most recent
        assert cache.put("d", 4, nbytes=60)
        # b and c (oldest first) free 60 bytes; a survives.
        assert sorted(k for k in "abcd" if k in cache) == ["a", "d"]
        assert cache.stats.evictions == 2
        assert cache.stats.bytes_evicted == 60
        assert cache.resident_bytes == 90

    def test_stale_version_drops_entry(self):
        cache = ByteBudgetCache(100)
        cache.put("k", 1, nbytes=10, versions=(("f", 1),))
        assert cache.get("k", versions=(("f", 2),)) is None
        assert "k" not in cache
        assert cache.stats.stale_drops == 1 and cache.stats.misses == 1
        cache.put("k", 2, nbytes=10, versions=(("f", 2),))
        assert cache.get("k", versions=(("f", 2),)) == 2

    def test_entry_peek_does_not_touch_recency_or_stats(self):
        cache = ByteBudgetCache(80)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        assert cache.entry("a").value == 1
        assert cache.stats.hits == 0
        cache.put("c", 3, nbytes=40)
        # The peek did not refresh a, so a (not b) was the LRU victim.
        assert "a" not in cache and "b" in cache


class TestPartialHitHybridPlan:
    def test_partial_hit_splits_into_cached_and_residual(self):
        env = _build_env()
        spec = CacheSpec(result_budget_bytes=0)  # force the split tier
        oracle = env.run(SQL, _config(None), "tpch")
        oracle_digest = canonical_result_digest(oracle.batch)

        cold = env.run(SQL, _config(spec), "tpch")
        manager = env.cache_manager(spec)
        assert len(manager.splits) == 3
        assert canonical_result_digest(cold.batch) == oracle_digest

        # Knock one split out: the next run must lower to a hybrid plan.
        victim = sorted(manager.splits._entries, key=repr)[0]
        assert manager.splits.invalidate(victim)
        partial = env.run(SQL, _config(spec), "tpch")
        assert int(partial.metrics.value("split_cache_hits")) == 2
        unions = [
            s for s in partial.stage_graph.topological() if s.kind == "cache-union"
        ]
        assert len(unions) == 1
        assert unions[0].attributes["cached_splits"] == 2
        assert unions[0].attributes["residual_splits"] == 1
        assert canonical_result_digest(partial.batch) == oracle_digest

        # The residual refilled the evicted split: a full hit moves no
        # bytes across the storage/compute boundary at all.
        full = env.run(SQL, _config(spec), "tpch")
        assert int(full.metrics.value("split_cache_hits")) == 3
        full_unions = [
            s for s in full.stage_graph.topological() if s.kind == "cache-union"
        ]
        assert full_unions[0].attributes["residual_splits"] == 0
        assert full.data_moved_bytes == 0
        assert canonical_result_digest(full.batch) == oracle_digest


class TestVersionedInvalidation:
    def test_object_write_invalidates_both_tiers(self):
        env = _build_env()
        spec = CacheSpec()
        config = _config(spec)
        first = env.run(SQL, config, "tpch")
        warm = env.run(SQL, config, "tpch")
        assert int(warm.metrics.value("result_cache_hits")) == 1

        # Rewrite one data object (same bytes, bumped write counter):
        # the result entry and that split's page entries all go stale.
        manager = env.cache_manager(spec)
        descriptor = env.metastore.get_table("tpch", "lineitem")
        key = descriptor.files[0]
        env.store.put_object(descriptor.bucket, key, env.store.get_object(descriptor.bucket, key))
        recomputed = env.run(SQL, config, "tpch")
        assert int(recomputed.metrics.value("result_cache_hits")) == 0
        stats = manager.stats()
        assert stats["result"]["stale_drops"] >= 1
        assert stats["split"]["stale_drops"] >= 1
        assert stats["storage"]["stale_drops"] >= 1
        # Same bytes, same answer — staleness is about versions, not data.
        assert canonical_result_digest(recomputed.batch) == canonical_result_digest(
            first.batch
        )

    def test_descriptor_bump_invalidates_result_tier(self):
        env = _build_env()
        spec = CacheSpec()
        config = _config(spec)
        env.run(SQL, config, "tpch")
        env.metastore.get_table("tpch", "lineitem").bump_version()
        recomputed = env.run(SQL, config, "tpch")
        assert int(recomputed.metrics.value("result_cache_hits")) == 0
        assert env.cache_manager(spec).stats()["result"]["stale_drops"] >= 1


class TestServiceTenantAccounting:
    def test_hits_and_fills_land_in_per_query_counters(self):
        env = _build_env(files=2, rows=2_000)
        service = QueryService(
            env,
            ServiceSpec(),
            base_config=RunConfig(label="svc", mode="ocs", cache=CacheSpec()),
        )
        analytics = service.submit(SQL, schema="tpch", tenant="analytics")
        cold = analytics.result().metrics
        assert cold.value("result_cache_fills") + cold.value("split_cache_fills") >= 1
        assert cold.value("result_cache_hits") == cold.value("split_cache_hits") == 0

        bi = service.submit(SQL, schema="tpch", tenant="bi")
        warm = bi.result().metrics
        assert warm.value("result_cache_hits") == 1
        assert warm.value("result_cache_fills") == 0
        assert service.cache.results.stats.bytes_served > 0


class TestCachedRunDeterminism:
    def test_seeded_replay_is_byte_identical_with_cache_enabled(self):
        sequence = [SQL, SQL, SQL.replace("0.03", "0.05"), SQL]

        def trace():
            env = _build_env()
            spec = CacheSpec()
            out = []
            for sql in sequence:
                result = env.run(sql, _config(spec), "tpch")
                out.append(
                    (
                        canonical_result_digest(result.batch),
                        result.execution_seconds,
                        result.data_moved_bytes,
                        int(result.metrics.value("result_cache_hits")),
                    )
                )
            return out

        first, second = trace(), trace()
        assert first == second
        # The repeats really were served from cache.
        assert first[1][3] == 1 and first[3][3] == 1
