"""Ablation benchmarks for the design choices DESIGN.md calls out.

* row-group pruning via the ReadRel best-effort filter,
* single-phase vs two-phase (multi-node) aggregation pushdown,
* the normal-vs-uniform selectivity model's estimation accuracy.
"""

import pytest

from repro.bench.env import Environment, RunConfig
from repro.config import TestbedSpec
from repro.core import SelectivityAnalyzer
from repro.exec.expressions import AndExpr, ColumnExpr, CompareExpr, LiteralExpr
from repro.workloads import LAGHOS_QUERY


class TestRowGroupPruning:
    def test_selective_scan_prunes(self, benchmark, figure5_env):
        # vertex_id is 0..N-1 within each file: a tight range lets chunk
        # statistics prune most row groups before any decode.
        query = "SELECT count(*) AS n FROM laghos WHERE vertex_id < 64"

        def run():
            return figure5_env.run(query, RunConfig.filter_only(), schema="hpc")

        result = benchmark.pedantic(run, rounds=2, iterations=1)
        pruned = result.metrics.value("ocs_row_groups_pruned")
        read = result.metrics.value("ocs_row_groups_read")
        benchmark.extra_info["row_groups_pruned"] = pruned
        benchmark.extra_info["row_groups_read"] = read
        assert pruned > read

    def test_unselective_scan_cannot_prune(self, benchmark, figure5_env):
        query = "SELECT count(*) AS n FROM laghos WHERE x > 0.0"

        def run():
            return figure5_env.run(query, RunConfig.filter_only(), schema="hpc")

        result = benchmark.pedantic(run, rounds=2, iterations=1)
        assert result.metrics.value("ocs_row_groups_pruned") == 0


class TestMultiNodeAblation:
    def test_two_phase_vs_single_phase(self, benchmark, figure5_env):
        """3 storage nodes force partial aggregation + residual merge; the
        answer is identical and the scan parallelizes across nodes."""
        multi = Environment(
            testbed=TestbedSpec(storage_node_count=3),
            store=figure5_env.store,
            metastore=figure5_env.metastore,
        )
        config = RunConfig.ocs("agg", "filter", "aggregate")

        def run():
            single = figure5_env.run(LAGHOS_QUERY, config, schema="hpc")
            distributed = multi.run(LAGHOS_QUERY, config, schema="hpc")
            return single, distributed

        single, distributed = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info["single_seconds"] = single.execution_seconds
        benchmark.extra_info["multi_seconds"] = distributed.execution_seconds
        benchmark.extra_info["scan_parallel_speedup"] = (
            single.execution_seconds / distributed.execution_seconds
        )
        assert distributed.splits > single.splits
        assert distributed.batch.num_rows == single.batch.num_rows
        # Partial states move more data than finals, so whether the
        # parallel scan wins is scale-dependent (it does at paper scale);
        # correctness and the split structure are the invariants here.
        assert distributed.data_moved_bytes >= single.data_moved_bytes


class TestSplitGranularityAblation:
    def test_node_vs_file_granularity(self, benchmark, figure5_env):
        """Table-level requests (default) vs Presto's classic per-file
        splits: per-file forces partial aggregation states per file, so it
        moves more and pays more round trips — the measured justification
        for the connector's node-granularity default."""
        from dataclasses import replace

        from repro.workloads import LAGHOS_QUERY

        node_cfg = RunConfig.ocs("agg", "filter", "aggregate")
        file_cfg = replace(node_cfg, split_granularity="file")

        def run():
            node = figure5_env.run(LAGHOS_QUERY, node_cfg, schema="hpc")
            file_ = figure5_env.run(LAGHOS_QUERY, file_cfg, schema="hpc")
            return node, file_

        node, file_ = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info["node_moved"] = node.data_moved_bytes
        benchmark.extra_info["file_moved"] = file_.data_moved_bytes
        benchmark.extra_info["node_seconds"] = node.execution_seconds
        benchmark.extra_info["file_seconds"] = file_.execution_seconds
        assert node.batch.approx_equals(file_.batch)
        assert file_.splits > node.splits
        assert file_.data_moved_bytes > node.data_moved_bytes


class TestSelectivityModelAblation:
    @pytest.mark.parametrize("distribution", ["normal", "uniform"])
    def test_estimator_accuracy(self, benchmark, figure5_env, distribution):
        """Estimate vs measured pass-rate for the Laghos range filter.

        Positions are quasi-uniform, so the paper's normality assumption
        *underestimates* here — its documented weakness on non-normal data."""
        descriptor = figure5_env.metastore.get_table("hpc", "laghos")
        analyzer = SelectivityAnalyzer(descriptor, distribution=distribution)
        predicate = AndExpr(
            tuple(
                cmp
                for axis in ("x", "y", "z")
                for cmp in (
                    CompareExpr(">=", ColumnExpr(axis, descriptor.table_schema.field(axis).dtype), LiteralExpr(0.8, descriptor.table_schema.field(axis).dtype)),
                    CompareExpr("<=", ColumnExpr(axis, descriptor.table_schema.field(axis).dtype), LiteralExpr(3.2, descriptor.table_schema.field(axis).dtype)),
                )
            )
        )
        estimate = benchmark(analyzer.filter_selectivity, predicate)
        result = figure5_env.run(LAGHOS_QUERY, RunConfig.filter_only(), schema="hpc")
        measured = result.metrics.value("ocs_rows_returned") / result.metrics.value(
            "ocs_rows_scanned"
        )
        benchmark.extra_info["estimated"] = estimate.selectivity
        benchmark.extra_info["measured"] = measured
        benchmark.extra_info["relative_error"] = (
            abs(estimate.selectivity - measured) / measured
        )
        assert 0 < estimate.selectivity < 1
