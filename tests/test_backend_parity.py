"""Suite-wide fused-vs-tree parity via the analysis harness.

Every suite query, in raw and pushdown modes, must produce
digest-identical results under the fused backend — including the join
queries, where dynamic-filter Bloom probes are folded into the fused
selection.
"""

import pytest

from repro.analysis.parity import BackendParityReport, check_backend_parity, check_suite_parity
from repro.bench import RunConfig
from repro.errors import ConfigError, DeterminismError
from repro.sql.parser import MAX_EXPRESSION_DEPTH
from repro.workloads import (
    DEEPWATER_QUERY,
    LAGHOS_QUERY,
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q6,
    TPCH_Q12,
)

SUITE = [
    ("hpc", LAGHOS_QUERY),
    ("hpc", DEEPWATER_QUERY),
    ("tpch", TPCH_Q1),
    ("tpch", TPCH_Q3),
    ("tpch", TPCH_Q6),
    ("tpch", TPCH_Q12),
    # At the parser's depth ceiling, both ways: nesting and tree height.
    ("tpch", "SELECT sum(" + " * ".join(["discount"] * (MAX_EXPRESSION_DEPTH - 1))
     + ") AS s FROM lineitem WHERE "
     + "(" * MAX_EXPRESSION_DEPTH + "tax > 0.01 AND quantity < 30" + ")" * MAX_EXPRESSION_DEPTH),
]

MODES = ["hive-raw", "ocs"]


def _cases(mode):
    return [
        (sql, RunConfig(label=f"{schema}-{mode}", mode=mode), schema)
        for schema, sql in SUITE
    ]


@pytest.mark.parametrize("mode", MODES)
def test_suite_parity(small_env, mode):
    reports = check_suite_parity(small_env, _cases(mode))
    assert len(reports) == len(SUITE)
    for report in reports:
        assert report.ok
        assert report.tree_rows == report.fused_rows
        # Fused must not be costed slower than tree under the simulator.
        assert report.sim_speedup >= 1.0


def test_parity_report_mismatch_raises():
    report = BackendParityReport(
        label="x", sql="SELECT 1", tree_digest="aa", fused_digest="bb",
        tree_rows=1, fused_rows=2, tree_seconds=1.0, fused_seconds=1.0,
    )
    assert not report.ok
    with pytest.raises(DeterminismError, match="backend parity violation"):
        report.raise_if_failed()


def test_parity_joins_with_dynamic_filters(small_env):
    # Dynamic-filter pushdown turns the probe-side scan into extra
    # filters; parity must hold with the probes fused into selection.
    from repro.core import PushdownPolicy

    config = RunConfig(
        label="dyn",
        mode="ocs",
        policy=PushdownPolicy(enabled=frozenset({"filter"}), dynamic_filters=True),
    )
    report = check_backend_parity(small_env, TPCH_Q3, config, "tpch")
    assert report.ok


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="exec backend"):
        RunConfig(label="bad", mode="ocs", exec_backend="jit").validate()
