"""Failure injection: storage faults must surface cleanly, never wedge.

The DES has no timeouts to hide behind — a failure either propagates as
a typed error or the query completes.  These tests corrupt objects,
delete them mid-flight, and crash the embedded engine, asserting that
(a) the coordinator raises a meaningful error and (b) the connector's
EventListener records the failed pushdown (paper: "pushdown success
rates").
"""

import numpy as np
import pytest

from repro.arrowsim import RecordBatch
from repro.bench import Environment, RunConfig
from repro.errors import OcsError, RpcStatusError
from repro.ocs.embedded_engine import EmbeddedEngine
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


class TestStorageFaults:
    def test_engine_crash_surfaces_and_is_recorded(self, env, monkeypatch):
        def boom(self, plan, bucket, keys):
            raise OcsError("storage node fell over")

        monkeypatch.setattr(EmbeddedEngine, "execute", boom)
        before_failures = env.monitor.total_events
        with pytest.raises(RpcStatusError) as info:
            env.run(QUERY, RunConfig.filter_only(), schema="s")
        assert info.value.code == "INTERNAL"
        assert "fell over" in info.value.detail
        assert env.monitor.total_events == before_failures + 1
        assert env.monitor.success_rate() < 1.0

    def test_deleted_object_fails_cleanly(self, env):
        descriptor = env.metastore.get_table("s", "t")
        env.store.bucket("b").delete(descriptor.files[0])
        with pytest.raises(RpcStatusError):
            env.run(QUERY, RunConfig.filter_only(), schema="s")

    def test_corrupted_object_fails_cleanly(self, env):
        descriptor = env.metastore.get_table("s", "t")
        key = descriptor.files[0]
        data = bytearray(env.store.get_object("b", key))
        # The first column chunk ("grp", which the query reads) starts
        # right after the 4-byte head magic; trash its body.
        for offset in range(8, 48):
            data[offset] ^= 0xFF
        env.store.put_object("b", key, bytes(data))
        with pytest.raises(RpcStatusError):
            env.run(QUERY, RunConfig.filter_only(), schema="s")

    def test_truncated_object_fails_cleanly_on_raw_path(self, env):
        descriptor = env.metastore.get_table("s", "t")
        key = descriptor.files[0]
        data = env.store.get_object("b", key)
        env.store.put_object("b", key, data[: len(data) // 2])
        with pytest.raises(Exception):
            env.run(QUERY, RunConfig.none(), schema="s")

    def test_success_after_failure_recovers(self, env, monkeypatch):
        # One crash, then normal operation: history reflects both.
        calls = {"n": 0}
        original = EmbeddedEngine.execute

        def flaky(self, plan, bucket, keys):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OcsError("transient")
            return original(self, plan, bucket, keys)

        monkeypatch.setattr(EmbeddedEngine, "execute", flaky)
        with pytest.raises(RpcStatusError):
            env.run(QUERY, RunConfig.filter_only(), schema="s")
        result = env.run(QUERY, RunConfig.filter_only(), schema="s")
        assert result.rows == 4
        events = env.monitor.recent(2)
        assert [e.success for e in events] == [False, True]


class TestDeterminism:
    def test_repeated_runs_identical(self, env):
        results = [
            env.run(QUERY, RunConfig.filter_only(), schema="s") for _ in range(3)
        ]
        seconds = {r.execution_seconds for r in results}
        moved = {r.data_moved_bytes for r in results}
        assert len(seconds) == 1, "simulated time must be deterministic"
        assert len(moved) == 1
        assert results[0].batch.equals(results[1].batch)

    def test_all_modes_deterministic(self, env):
        for config in (
            RunConfig.none(),
            RunConfig.ocs("a", "filter", "aggregate"),
        ):
            a = env.run(QUERY, config, schema="s")
            b = env.run(QUERY, config, schema="s")
            assert a.execution_seconds == b.execution_seconds
            assert a.stage_seconds == b.stage_seconds
