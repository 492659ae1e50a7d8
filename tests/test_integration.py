"""End-to-end integration tests: the pushdown-transparency contract.

The Presto-OCS connector's core correctness promise: **every pushdown
policy returns the same answer as no pushdown at all** (paper Section 3.4
— residual operators "preserve full SQL semantics").  These tests run a
battery of queries under every connector configuration — including
multi-storage-node clusters where aggregation must go two-phase — and
require identical results, plus an independent numpy oracle for the
flagship Laghos query.
"""

import numpy as np
import pytest

from repro.bench import Environment, RunConfig
from repro.config import TestbedSpec
from repro.core import PushdownPolicy
from repro.sql.parser import MAX_EXPRESSION_DEPTH
from repro.workloads import (
    DEEPWATER_QUERY,
    LAGHOS_QUERY,
    LAGHOS_QUERY_ORIGINAL,
    TPCH_Q1,
    TPCH_Q6,
)
from repro.workloads import generate_laghos_file
from tests.conftest import LAGHOS_FILES, LAGHOS_ROWS


def canonical_rows(batch, sig_digits=9):
    """Order-insensitive row multiset, floats rounded to significant digits
    (absolute rounding fails for 1e9-magnitude sums whose low bits differ
    legitimately across accumulation orders)."""
    data = batch.to_pydict()
    names = list(data)
    rows = []
    for i in range(batch.num_rows):
        row = []
        for name in names:
            value = data[name][i]
            if isinstance(value, float):
                value = float(f"{value:.{sig_digits}g}")
            row.append(value)
        rows.append(tuple(row))
    return names, sorted(rows, key=repr)


ALL_CONFIGS = [
    RunConfig.none(),
    RunConfig(label="hive-pruned", mode="hive-raw", prune_columns=True),
    RunConfig.filter_only(),
    RunConfig.ocs("f+p", "filter", "project"),
    RunConfig.ocs("f+a", "filter", "aggregate"),
    RunConfig.ocs("f+p+a", "filter", "project", "aggregate"),
    RunConfig.ocs("full", "filter", "project", "aggregate", "topn", "sort", "limit"),
    RunConfig(label="ocs-none", mode="ocs", policy=PushdownPolicy.none()),
]

QUERIES = [
    ("hpc", LAGHOS_QUERY),
    ("hpc", LAGHOS_QUERY_ORIGINAL),
    ("hpc", DEEPWATER_QUERY),
    ("tpch", TPCH_Q1),
    ("tpch", TPCH_Q6),
    ("hpc", "SELECT count(*) AS n FROM laghos"),
    ("hpc", "SELECT count(*) AS n, avg(x) AS m FROM laghos WHERE x > 2.0"),
    ("hpc", "SELECT vertex_id, x FROM laghos WHERE x > 3.9 AND y < 0.5 ORDER BY x DESC LIMIT 7"),
    ("hpc", "SELECT timestep, min(snd) AS lo, max(snd) AS hi FROM deepwater GROUP BY timestep"),
    ("hpc", "SELECT timestep FROM deepwater GROUP BY timestep HAVING count(*) > 10"),
    ("tpch", "SELECT returnflag, count(DISTINCT shipmode) AS modes FROM lineitem GROUP BY returnflag ORDER BY returnflag"),
    ("tpch", "SELECT shipmode, sum(quantity) AS q FROM lineitem WHERE shipmode IN ('AIR', 'RAIL') GROUP BY shipmode ORDER BY q DESC"),
    ("tpch", "SELECT orderkey FROM lineitem WHERE linenumber = 3 LIMIT 20"),
    # Exactly at the parser's depth ceiling: whatever parses must also run.
    ("tpch", "SELECT count(*) AS n FROM lineitem WHERE "
     + "(" * MAX_EXPRESSION_DEPTH + "quantity > 10" + ")" * MAX_EXPRESSION_DEPTH),
    ("tpch", "SELECT count(*) AS n FROM lineitem WHERE "
     + "NOT " * (MAX_EXPRESSION_DEPTH - 2) + "quantity > 10"),
    ("tpch", "SELECT returnflag, sum("
     + " + ".join(["quantity", "linenumber"] * ((MAX_EXPRESSION_DEPTH - 1) // 2))
     + ") AS s FROM lineitem WHERE discount < 0.05 GROUP BY returnflag"),
]


class TestPushdownTransparency:
    @pytest.mark.parametrize("schema,query", QUERIES, ids=[q[:48] for _, q in QUERIES])
    def test_all_configs_agree(self, small_env, schema, query):
        reference = None
        for config in ALL_CONFIGS:
            result = small_env.run(query, config, schema=schema)
            rows = canonical_rows(result.batch)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"config {config.label} diverged"

    def test_multinode_two_phase_agrees(self, small_env):
        multi = Environment(
            testbed=TestbedSpec(storage_node_count=3),
            store=small_env.store,
            metastore=small_env.metastore,
        )
        for schema, query in [("hpc", LAGHOS_QUERY), ("tpch", TPCH_Q1)]:
            single = small_env.run(
                query, RunConfig.ocs("full", "filter", "project", "aggregate", "topn"),
                schema=schema,
            )
            distributed = multi.run(
                query, RunConfig.ocs("full", "filter", "project", "aggregate", "topn"),
                schema=schema,
            )
            assert distributed.splits == 3 or distributed.splits == 2
            assert canonical_rows(distributed.batch) == canonical_rows(single.batch)


class TestOracle:
    def test_laghos_against_numpy(self, small_env):
        """Independent oracle: recompute the flagship query with numpy."""
        frames = [
            generate_laghos_file(LAGHOS_ROWS, i, seed=11) for i in range(LAGHOS_FILES)
        ]
        cols = {
            name: np.concatenate([f.column(name).values for f in frames])
            for name in ("vertex_id", "x", "y", "z", "e")
        }
        mask = np.ones(len(cols["x"]), dtype=bool)
        for axis in ("x", "y", "z"):
            mask &= (cols[axis] >= 0.8) & (cols[axis] <= 3.2)
        vid = cols["vertex_id"][mask]
        expected = {}
        for key in np.unique(vid):
            rows = vid == key
            expected[int(key)] = (
                float(cols["e"][mask][rows].mean()),
                float(cols["x"][mask][rows].min()),
            )
        # Top 100 groups by avg(e) ascending.
        ordered = sorted(expected.items(), key=lambda kv: kv[1][0])[:100]

        result = small_env.run(
            LAGHOS_QUERY,
            RunConfig.ocs("full", "filter", "aggregate", "topn"),
            schema="hpc",
        )
        got = result.to_pydict()
        assert result.rows == min(100, len(expected))
        for i, (key, (avg_e, min_x)) in enumerate(ordered):
            assert got["vid"][i] == key  # min(vertex_id) == the key itself
            assert got["avg_e"][i] == pytest.approx(avg_e, rel=1e-9)
            assert got["min_x"][i] == pytest.approx(min_x, rel=1e-9)

    def test_tpch_q1_group_count(self, small_env):
        result = small_env.run(TPCH_Q1, RunConfig.none(), schema="tpch")
        assert result.rows == 4
        flags = result.to_pydict()["returnflag"]
        statuses = result.to_pydict()["linestatus"]
        assert list(zip(flags, statuses)) == [
            ("A", "F"), ("N", "F"), ("N", "O"), ("R", "F"),
        ]


class TestMovementAndShape:
    def test_movement_monotone_under_pushdown(self, small_env):
        configs = [
            RunConfig.none(),
            RunConfig.filter_only(),
            RunConfig.ocs("f+a", "filter", "aggregate"),
            RunConfig.ocs("full", "filter", "aggregate", "topn"),
        ]
        moved = [
            small_env.run(LAGHOS_QUERY, c, schema="hpc").data_moved_bytes
            for c in configs
        ]
        assert moved[0] > moved[1] > moved[2] > moved[3]

    def test_filter_selectivities_match_table2_shape(self, small_env):
        """Laghos keeps ~21% of rows, Deep Water ~18%, TPC-H Q1 ~98%."""
        r = small_env.run(LAGHOS_QUERY, RunConfig.filter_only(), schema="hpc")
        laghos = r.metrics.value("ocs_rows_returned") / r.metrics.value("ocs_rows_scanned")
        assert 0.15 < laghos < 0.30
        r = small_env.run(DEEPWATER_QUERY, RunConfig.filter_only(), schema="hpc")
        deepwater = r.metrics.value("ocs_rows_returned") / r.metrics.value("ocs_rows_scanned")
        assert 0.12 < deepwater < 0.26
        r = small_env.run(TPCH_Q1, RunConfig.filter_only(), schema="tpch")
        tpch = r.metrics.value("ocs_rows_returned") / r.metrics.value("ocs_rows_scanned")
        assert tpch > 0.9

    def test_aggregation_pushdown_beats_filter_only(self, small_env):
        filter_only = small_env.run(TPCH_Q1, RunConfig.filter_only(), schema="tpch")
        agg = small_env.run(
            TPCH_Q1, RunConfig.ocs("f+p+a", "filter", "project", "aggregate"),
            schema="tpch",
        )
        assert agg.execution_seconds < filter_only.execution_seconds
        assert agg.data_moved_bytes < filter_only.data_moved_bytes / 100

    def test_row_group_pruning_active(self, small_env):
        # vertex_id is 0..N-1 per file: a tight range prunes row groups.
        r = small_env.run(
            "SELECT count(*) AS n FROM laghos WHERE vertex_id < 100",
            RunConfig.filter_only(),
            schema="hpc",
        )
        assert r.metrics.value("ocs_row_groups_pruned") > 0
        assert r.to_pydict()["n"] == [100 * LAGHOS_FILES]


class TestStagesAndMonitoring:
    def test_stage_breakdown_present(self, small_env):
        r = small_env.run(
            LAGHOS_QUERY,
            RunConfig.ocs("full", "filter", "aggregate", "topn"),
            schema="hpc",
        )
        stages = r.stage_seconds
        for stage in (
            "logical_plan_analysis",
            "substrait_generation",
            "pushdown_and_transfer",
            "presto_execution",
            "others",
        ):
            assert stage in stages, f"missing stage {stage}"
            assert stages[stage] >= 0
        # With a single split the stages partition the timeline.
        assert sum(stages.values()) == pytest.approx(r.execution_seconds, rel=0.05)

    def test_monitor_accumulates_history(self, small_env):
        env = Environment(store=small_env.store, metastore=small_env.metastore)
        before = env.monitor.total_events
        env.run(LAGHOS_QUERY, RunConfig.filter_only(), schema="hpc")
        env.run(
            LAGHOS_QUERY, RunConfig.ocs("f+a", "filter", "aggregate"), schema="hpc"
        )
        assert env.monitor.total_events == before + 2
        assert env.monitor.success_rate() == 1.0
        freq = env.monitor.operator_frequencies()
        assert freq["filter"] == 2
        assert freq["aggregation"] == 1
        assert env.monitor.mean_reduction_ratio() < 0.5
