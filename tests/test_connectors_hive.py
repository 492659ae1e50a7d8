"""Unit tests for the Hive-class connector (raw + select paths)."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.arrowsim import RecordBatch
from repro.bench import Environment, RunConfig
from repro.config import FaultSpec
from repro.connectors.hive import HiveConnector, HiveTableHandle
from repro.engine import Cluster
from repro.errors import ConfigError, FormatError, StatusCode
from repro.formats import ParcelReader
from repro.formats.metadata import MAGIC, encode_footer
from repro.formats.reader import meta_from_tail
from repro.rpc import RetryPolicy
from repro.workloads import DatasetSpec


def _int_file(index: int) -> RecordBatch:
    rng = np.random.default_rng(index)
    n = 4000
    return RecordBatch.from_arrays(
        {
            "id": np.arange(index * n, (index + 1) * n),
            "grp": rng.integers(0, 5, n),
            "score": rng.integers(0, 1000, n),
        }
    )


@pytest.fixture(scope="module")
def int_env():
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="app", table_name="events", bucket="b",
            file_count=3, generator=_int_file, row_group_rows=1000,
        )
    )
    return env


class TestHandleAndSplits:
    def test_unknown_mode_rejected(self, int_env):
        cluster = Cluster(int_env.store, int_env.testbed, int_env.costs)
        with pytest.raises(ConfigError):
            HiveConnector(cluster, int_env.metastore, mode="warp")

    def test_one_split_per_file(self, int_env):
        cluster = Cluster(int_env.store, int_env.testbed, int_env.costs)
        connector = HiveConnector(cluster, int_env.metastore)
        handle = connector.get_table_handle("app", "events")
        assert isinstance(handle, HiveTableHandle)
        splits = connector.get_splits(handle)
        assert len(splits) == 3
        assert all(len(s.keys) == 1 for s in splits)


class TestRawPath:
    def test_prune_columns_reduces_movement(self, int_env):
        query = "SELECT id FROM events WHERE id < 100"
        pruned = int_env.run(
            query, RunConfig(label="p", mode="hive-raw", prune_columns=True),
            schema="app",
        )
        full = int_env.run(
            query, RunConfig(label="f", mode="hive-raw", prune_columns=False),
            schema="app",
        )
        assert pruned.rows == full.rows == 100
        assert pruned.data_moved_bytes < full.data_moved_bytes

    def test_footer_fetched_via_two_ranged_gets(self, int_env):
        result = int_env.run(
            "SELECT count(*) AS n FROM events", RunConfig.none(), schema="app"
        )
        # Every split fetched 8 tail bytes + footer + chunks; the movement
        # ledger must exceed the raw chunk payloads alone.
        raw = result.metrics.value("raw_bytes_fetched")
        assert result.data_moved_bytes > raw > 0

    def test_full_scan_matches_dataset_size_when_unpruned(self, int_env):
        descriptor = int_env.metastore.get_table("app", "events")
        total = int_env.dataset_bytes(descriptor)
        result = int_env.run(
            "SELECT id FROM events",
            RunConfig(label="f", mode="hive-raw", prune_columns=False),
            schema="app",
        )
        # Whole objects (minus footers fetched separately, plus overheads).
        assert result.data_moved_bytes > 0.9 * total


class TestSelectPath:
    def test_filter_absorbed_and_results_match(self, int_env):
        query = "SELECT grp, count(*) AS n FROM events WHERE score < 250 GROUP BY grp ORDER BY grp"
        select = int_env.run(
            query, RunConfig(label="s", mode="hive-select"), schema="app"
        )
        raw = int_env.run(query, RunConfig.none(), schema="app")
        assert select.metrics.value("hive_filter_pushed") == 1
        assert select.to_pydict() == raw.to_pydict()
        assert select.data_moved_bytes < raw.data_moved_bytes

    def test_aggregation_never_absorbed(self, int_env):
        # The Hive connector's ceiling (paper Section 2.4): even in select
        # mode the aggregation stays on the compute side, so all passing
        # rows cross the network.
        query = "SELECT grp, count(*) AS n FROM events GROUP BY grp"
        select = int_env.run(
            query, RunConfig(label="s", mode="hive-select"), schema="app"
        )
        ocs = int_env.run(
            query, RunConfig.ocs("a", "filter", "aggregate"), schema="app"
        )
        a, b = select.to_pydict(), ocs.to_pydict()
        assert sorted(zip(a["grp"], a["n"])) == sorted(zip(b["grp"], b["n"]))
        assert select.data_moved_bytes > 100 * ocs.data_moved_bytes

    def test_or_predicate_pushes(self, int_env):
        query = "SELECT id FROM events WHERE id < 10 OR id > 11980"
        select = int_env.run(
            query, RunConfig(label="s", mode="hive-select"), schema="app"
        )
        assert select.metrics.value("hive_filter_pushed") == 1
        assert select.rows == 29

    def test_csv_transport_byte_accounting(self, int_env):
        query = "SELECT id FROM events WHERE id < 50"
        result = int_env.run(
            query, RunConfig(label="s", mode="hive-select"), schema="app"
        )
        assert result.metrics.value("s3select_rows_scanned") == 12000
        assert result.metrics.value("s3select_rows_returned") == 50


class TestOneReadPath:
    """Both Hive modes read through the code the OCS path uses."""

    QUERY = "SELECT grp, count(*) AS n, sum(score) AS s FROM events GROUP BY grp"
    MODES = {
        "hive-raw": RunConfig(label="raw", mode="hive-raw"),
        "hive-raw-unpruned": RunConfig(label="raw", mode="hive-raw", prune_columns=False),
        "hive-select": RunConfig(label="select", mode="hive-select"),
    }

    @pytest.mark.parametrize("mode", MODES)
    def test_gateway_calls_retry_under_the_run_retry_policy(self, int_env, mode):
        config = self.MODES[mode]
        healthy = int_env.run(self.QUERY, config, schema="app")
        faulted = int_env.run(
            self.QUERY,
            dataclasses.replace(
                config,
                faults=FaultSpec(link_drop_probability=0.2, seed=3),
                retry=RetryPolicy(max_attempts=10, initial_backoff_s=0.005),
            ),
            schema="app",
        )
        got, want = faulted.to_pydict(), healthy.to_pydict()
        assert sorted(zip(*got.values())) == sorted(zip(*want.values()))
        attempts = [s for s in faulted.trace if s.name.startswith("rpc:s3.")]
        assert attempts and all("attempt" in s.attributes for s in attempts)
        assert any(s.status is StatusCode.UNAVAILABLE for s in attempts)
        assert any(s.attributes["attempt"] > 1 for s in attempts)

    def test_gateway_reads_retry_without_the_pushdown_deadline(self, int_env):
        # A deadline no gateway round trip can meet: only the pushdown
        # dispatch may time out; a Hive read has nothing below it.
        retry = RetryPolicy(max_attempts=2, deadline_s=1e-9)
        cluster = Cluster(int_env.store, int_env.testbed, int_env.costs)
        connector = HiveConnector(cluster, int_env.metastore, retry_policy=retry)
        assert connector.retry_policy is retry
        assert connector.gateway_policy.deadline_s is None
        assert connector.gateway_policy.max_attempts == 2
        config = dataclasses.replace(RunConfig.none(), retry=retry)
        result = int_env.run(self.QUERY, config, schema="app")
        assert result.rows == 5

    def test_footer_that_misstates_a_chunk_size_fails_typed(self):
        env = Environment()
        env.add_dataset(
            DatasetSpec(
                schema_name="app", table_name="events", bucket="b",
                file_count=1, generator=_int_file, row_group_rows=1000,
            )
        )
        key = env.metastore.get_table("app", "events").files[0]
        data = env.store.get_object("b", key)
        meta = meta_from_tail(data)
        rg = meta.row_groups[0]
        chunk = rg.chunks[meta.schema.index_of("grp")]
        rg.chunks[meta.schema.index_of("grp")] = dataclasses.replace(
            chunk, uncompressed_size=chunk.uncompressed_size + 7
        )
        footer = encode_footer(meta)
        footer_len = struct.unpack("<I", data[-8:-4])[0]
        body = data[: len(data) - 8 - footer_len]
        env.store.put_object("b", key, body + footer + struct.pack("<I", len(footer)) + MAGIC)
        stored = env.store.get_object("b", key)

        with pytest.raises(FormatError, match="footer says") as reader_error:
            ParcelReader(stored).read_row_group(0, ["grp"])
        with pytest.raises(FormatError, match="footer says") as raw_error:
            env.run("SELECT grp FROM events", RunConfig.none(), schema="app")
        assert str(raw_error.value) == str(reader_error.value)
