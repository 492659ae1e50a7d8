"""The ``repro.client`` facade: connect, register, execute, explain."""

import numpy as np
import pytest

from repro import Client, RunConfig, connect
from repro.arrowsim import RecordBatch
from repro.config import FaultSpec
from repro.errors import ConfigError
from repro.rpc import RetryPolicy
from repro.workloads import DatasetSpec


def _file(index: int) -> RecordBatch:
    rng = np.random.default_rng(11 + index)
    return RecordBatch.from_arrays(
        {"grp": rng.integers(0, 3, 1500), "v": rng.random(1500)}
    )


def _spec(schema="s", table="t", files=2):
    return DatasetSpec(
        schema_name=schema, table_name=table, bucket=f"b-{schema}-{table}",
        file_count=files, generator=_file, row_group_rows=512,
    )


QUERY = "SELECT grp, count(*) AS n FROM t GROUP BY grp"


class TestConnect:
    def test_connect_is_importable_from_package_root(self):
        import repro

        assert repro.connect is connect
        assert repro.Client is Client

    def test_execute_end_to_end_with_schema_inference(self):
        client = connect()
        descriptor = client.register_dataset(_spec())
        assert client.dataset_bytes(descriptor) > 0
        result = client.execute(QUERY)  # defaults: full OCS pushdown
        assert result.rows == 3
        assert sum(result.to_pydict()["n"]) == 3000

    def test_default_config_is_full_pushdown(self):
        client = connect()
        client.register_dataset(_spec())
        pushed = client.execute(QUERY)
        raw = client.execute(QUERY, RunConfig.none())
        assert pushed.batch.approx_equals(raw.batch)
        assert pushed.data_moved_bytes < raw.data_moved_bytes

    def test_schema_required_when_ambiguous(self):
        client = connect()
        with pytest.raises(ConfigError, match="no datasets registered"):
            client.execute(QUERY)
        client.register_dataset(_spec(schema="a"))
        client.register_dataset(_spec(schema="b"))
        with pytest.raises(ConfigError, match="multiple schemas"):
            client.execute(QUERY)
        assert client.execute(QUERY, schema="a").rows == 3

    def test_monitor_accumulates_across_queries(self):
        client = connect()
        client.register_dataset(_spec())
        client.execute(QUERY)
        client.execute(QUERY)
        assert client.monitor.total_events == 2


class TestSessionDefaults:
    def test_session_tracing_applies_to_every_query(self):
        client = connect()
        client.register_dataset(_spec())
        result = client.execute(QUERY)
        assert result.trace.root().name == "query"

    def test_per_query_config_not_mutated(self):
        client = connect(retry=RetryPolicy(max_attempts=4, initial_backoff_s=0.01))
        client.register_dataset(_spec())
        config = RunConfig.filter_only()
        client.execute(QUERY, config)
        assert config.retry is None  # session default was applied via a copy

    def test_session_faults_and_retry_fill_unset_fields(self):
        client = connect(
            faults=FaultSpec(transient_storage_failures={0: 1}),
            retry=RetryPolicy(max_attempts=4, initial_backoff_s=0.01),
        )
        client.register_dataset(_spec())
        result = client.execute(QUERY)
        assert result.metrics.value("pushdown_retries") == 1
        event = client.monitor.recent(1)[0]
        assert event.success and event.attempts == 2

    def test_query_config_overrides_session_faults(self):
        client = connect(faults=FaultSpec(transient_storage_failures={0: 3}))
        client.register_dataset(_spec())
        healthy = RunConfig(
            label="h", mode="ocs", faults=FaultSpec(),  # explicit: no faults
        )
        result = client.execute(QUERY, healthy)
        assert result.metrics.value("pushdown_retries") == 0


class TestExplain:
    def test_explain_and_explain_analyze(self):
        client = connect()
        client.register_dataset(_spec())
        plain = client.explain(QUERY)
        assert "EXPLAIN" in plain
        analyzed = client.explain(QUERY, analyze=True)
        assert "Stage breakdown (derived from spans):" in analyzed
        assert "pushdown" in analyzed

    def test_quickstart_mirror(self):
        # The README quickstart, condensed: results identical across
        # configurations, pushdown moves less data.
        client = connect()
        client.register_dataset(_spec())
        sql = "SELECT count(*) AS n, avg(v) AS m FROM t WHERE v > 0.25"
        reference = None
        moved = []
        for config in (
            RunConfig.none(),
            RunConfig.filter_only(),
            RunConfig.ocs("full", "filter", "project", "aggregate", "topn"),
        ):
            result = client.execute(sql, config)
            if reference is None:
                reference = result.batch
            else:
                assert result.batch.approx_equals(reference)
            moved.append(result.data_moved_bytes)
        assert moved[0] > moved[1] > moved[2]
