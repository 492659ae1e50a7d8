"""Tests for zone-map histograms, the histogram selectivity model, and
the adaptive pushdown controller."""

import numpy as np
import pytest

from repro.arrowsim import FLOAT64, Field, INT64, RecordBatch, Schema
from repro.arrowsim.array import ColumnArray
from repro.bench import Environment, RunConfig
from repro.core import (
    AdaptiveController,
    PushdownEvent,
    PushdownMonitor,
    PushdownPolicy,
    SelectivityAnalyzer,
)
from repro.exec.expressions import AndExpr, ColumnExpr, CompareExpr, LiteralExpr
from repro.formats import write_table
from repro.metastore import IntervalHistogram, TableDescriptor, collect_table_statistics
from repro.objectstore import ObjectStore
from repro.workloads import DatasetSpec

SCHEMA = Schema([Field("sorted_id", INT64, nullable=False), Field("u", FLOAT64)])


def _build_descriptor(rows_per_group=500, groups=8):
    """A table where sorted_id is globally sorted (disjoint zone maps) and
    u is uniform [0, 1] (every zone map spans the full range)."""
    store = ObjectStore()
    store.create_bucket("b")
    rng = np.random.default_rng(0)
    n = rows_per_group * groups
    batch = RecordBatch(
        SCHEMA,
        [
            ColumnArray(INT64, np.arange(n)),
            ColumnArray(FLOAT64, rng.random(n)),
        ],
    )
    store.put_object("b", "t/p0", write_table([batch], row_group_rows=rows_per_group))
    descriptor = TableDescriptor(
        schema_name="s", table_name="t", table_schema=SCHEMA,
        bucket="b", key_prefix="t/", files=["t/p0"],
    )
    collect_table_statistics(descriptor, store)
    return descriptor


class TestIntervalHistogram:
    def test_from_empty(self):
        assert IntervalHistogram.from_intervals([]) is None
        assert IntervalHistogram.from_intervals([(0, 1, 0)]) is None

    def test_uniform_single_interval(self):
        h = IntervalHistogram.from_intervals([(0.0, 10.0, 100)])
        assert h.fraction_below(5.0) == pytest.approx(0.5)
        assert h.fraction_below(-1.0) == 0.0
        assert h.fraction_below(11.0) == 1.0

    def test_disjoint_intervals(self):
        h = IntervalHistogram.from_intervals([(0, 10, 100), (90, 100, 300)])
        assert h.fraction_below(10.0) == pytest.approx(0.25)
        assert h.fraction_below(50.0) == pytest.approx(0.25)
        assert h.fraction_below(95.0) == pytest.approx(0.25 + 0.75 * 0.5)

    def test_point_mass(self):
        h = IntervalHistogram.from_intervals([(5.0, 5.0, 10)])
        assert h.fraction_below(4.9) == 0.0
        assert h.fraction_below(5.0) == 1.0

    def test_between(self):
        h = IntervalHistogram.from_intervals([(0.0, 100.0, 1000)])
        assert h.fraction_between(25.0, 75.0) == pytest.approx(0.5)
        assert h.fraction_between(75.0, 25.0) == 0.0

    def test_merge(self):
        a = IntervalHistogram.from_intervals([(0, 1, 10)])
        b = IntervalHistogram.from_intervals([(1, 2, 10)])
        merged = a.merge(b)
        assert merged.total_rows == 20
        assert merged.fraction_below(1.0) == pytest.approx(0.5)


class TestHistogramModel:
    def test_collector_builds_histograms_for_numeric(self):
        descriptor = _build_descriptor()
        assert descriptor.histogram_for("sorted_id") is not None
        assert descriptor.histogram_for("u") is not None
        assert len(descriptor.histogram_for("sorted_id")) == 8

    def test_histogram_beats_normal_on_sorted_column(self):
        descriptor = _build_descriptor()
        pred = CompareExpr(
            "<", ColumnExpr("sorted_id", INT64), LiteralExpr(1000, INT64)
        )
        truth = 1000 / 4000
        hist = SelectivityAnalyzer(descriptor, distribution="histogram")
        normal = SelectivityAnalyzer(descriptor, distribution="normal")
        hist_err = abs(hist.filter_selectivity(pred).selectivity - truth)
        normal_err = abs(normal.filter_selectivity(pred).selectivity - truth)
        assert hist_err < 0.02
        assert hist_err < normal_err

    def test_histogram_beats_normal_on_uniform_column(self):
        descriptor = _build_descriptor()
        pred = AndExpr(
            (
                CompareExpr(">=", ColumnExpr("u", FLOAT64), LiteralExpr(0.1, FLOAT64)),
                CompareExpr("<=", ColumnExpr("u", FLOAT64), LiteralExpr(0.3, FLOAT64)),
            )
        )
        truth = 0.2
        hist = SelectivityAnalyzer(descriptor, distribution="histogram")
        normal = SelectivityAnalyzer(descriptor, distribution="normal")
        hist_est = hist.filter_selectivity(pred).selectivity
        normal_est = normal.filter_selectivity(pred).selectivity
        assert abs(hist_est - truth) < abs(normal_est - truth)

    def test_missing_histogram_falls_back(self):
        descriptor = _build_descriptor()
        descriptor.column_histograms = {}
        analyzer = SelectivityAnalyzer(descriptor, distribution="histogram")
        pred = CompareExpr("<", ColumnExpr("u", FLOAT64), LiteralExpr(0.5, FLOAT64))
        est = analyzer.filter_selectivity(pred)
        assert 0.0 < est.selectivity < 1.0

    def test_histogram_policy_runs_end_to_end(self):
        env = Environment()
        env.add_dataset(
            DatasetSpec(
                "s", "t", "bb", 2,
                lambda i: RecordBatch(
                    SCHEMA,
                    [
                        ColumnArray(INT64, np.arange(i * 1000, (i + 1) * 1000)),
                        ColumnArray(FLOAT64, np.random.default_rng(i).random(1000)),
                    ],
                ),
                row_group_rows=256,
            )
        )
        result = env.run(
            "SELECT count(*) AS n FROM t WHERE u < 0.25",
            RunConfig(
                label="hist", mode="ocs",
                policy=PushdownPolicy(
                    enabled=frozenset({"filter"}),
                    use_statistics=True,
                    filter_selectivity_threshold=0.5,
                    distribution="histogram",
                ),
            ),
            schema="s",
        )
        # Estimated ~25% < 50% threshold: the filter pushed.
        assert result.metrics.value("pushdown_operators") == 1


def _event(ratio, est_error=None, rows_in=1000):
    rows_out = int(rows_in * ratio)
    est = None
    if est_error is not None and rows_out:
        est = int(rows_out * (1 + est_error))
    return PushdownEvent(
        table="s.t", operators=("filter",), success=True,
        rows_scanned=rows_in, rows_returned=rows_out,
        bytes_returned=rows_out * 8, transfer_seconds=0.01, estimated_rows=est,
    )


class TestAdaptiveController:
    def test_insufficient_history_keeps_policy(self):
        monitor = PushdownMonitor()
        controller = AdaptiveController(monitor)
        policy = PushdownPolicy.filter_only()
        decision = controller.tune(policy)
        assert not decision.changed
        assert decision.policy is policy

    def test_unhelpful_pushdowns_enable_gating(self):
        monitor = PushdownMonitor()
        for _ in range(6):
            monitor.record(_event(ratio=0.95))
        controller = AdaptiveController(monitor)
        decision = controller.tune(PushdownPolicy.filter_only())
        assert decision.changed
        assert decision.policy.use_statistics
        assert decision.policy.filter_selectivity_threshold < 0.9

    def test_helpful_pushdowns_relax_gate(self):
        monitor = PushdownMonitor()
        for _ in range(6):
            monitor.record(_event(ratio=0.05))
        controller = AdaptiveController(monitor)
        gated = PushdownPolicy(
            enabled=frozenset({"filter"}), use_statistics=True
        )
        decision = controller.tune(gated)
        assert decision.changed
        assert not decision.policy.use_statistics

    def test_estimate_misses_switch_distribution(self):
        monitor = PushdownMonitor()
        for _ in range(6):
            monitor.record(_event(ratio=0.5, est_error=2.0))
        controller = AdaptiveController(monitor)
        decision = controller.tune(PushdownPolicy.filter_only())
        assert decision.changed
        assert decision.policy.distribution == "histogram"
        # A second escalation moves to uniform.
        second = controller.tune(decision.policy)
        assert second.policy.distribution == "uniform"
        # Uniform is terminal: no further model switch on the same signal
        # (the ratio rule may still fire instead).
        third = controller.tune(second.policy)
        assert third.policy.distribution == "uniform"

    def test_stable_history_changes_nothing(self):
        monitor = PushdownMonitor()
        for _ in range(6):
            monitor.record(_event(ratio=0.5, est_error=0.05))
        controller = AdaptiveController(monitor)
        decision = controller.tune(PushdownPolicy.filter_only())
        assert not decision.changed
        assert "within expectations" in decision.reason
