"""Unit tests for the extractor, pushdown policy, and plan rewrite."""

import pytest

from repro.arrowsim import FLOAT64, Field, INT64, STRING, Schema
from repro.core import (
    OcsPlanOptimizer,
    OcsTableHandle,
    OperatorExtractor,
    PushdownPolicy,
)
from repro.engine.spi import ConnectorTableHandle
from repro.errors import PlanError
from repro.exec.expressions import ColumnExpr
from repro.formats.statistics import ColumnStats
from repro.metastore.catalog import TableDescriptor
from repro.plan import GlobalOptimizer, plan_query
from repro.plan.nodes import (
    AggregationNode,
    FilterNode,
        SortNode,
    TableScanNode,
    TopNNode,
)
from repro.trace import Tracer
from repro.sql import analyze, parse

SCHEMA = Schema(
    [
        Field("vertex_id", INT64, nullable=False),
        Field("x", FLOAT64),
        Field("e", FLOAT64),
        Field("tag", STRING),
    ]
)


def descriptor():
    d = TableDescriptor(
        schema_name="hpc", table_name="t", table_schema=SCHEMA,
        bucket="b", key_prefix="p/",
        files=[f"p/part-{i}.parcel" for i in range(4)],
    )
    d.row_count = 100_000
    d.column_statistics = {
        "vertex_id": ColumnStats(100_000, 0, 5_000, 0, 99_999),
        "x": ColumnStats(100_000, 0, 50_000, 0.0, 4.0),
        "e": ColumnStats(100_000, 0, 90_000, 0.0, 10.0),
        "tag": ColumnStats(100_000, 0, 4, "a", "d"),
    }
    return d


def make_plan(sql):
    plan = plan_query(analyze(parse(sql), SCHEMA))
    plan = GlobalOptimizer().optimize(plan)
    _attach(plan)
    return plan


def _attach(plan):
    node = plan
    while node.children():
        node = node.children()[0]
    node.connector_handle = ConnectorTableHandle(descriptor())


def optimize(sql, policy, nodes=1):
    plan = make_plan(sql)
    optimizer = OcsPlanOptimizer(policy, storage_node_count=nodes)
    span = Tracer(clock=lambda: 0.0).start("optimize.local")
    return optimizer.optimize(plan, span)


def scan_of(plan):
    node = plan
    while node.children():
        node = node.children()[0]
    assert isinstance(node, TableScanNode)
    return node


def chain_names(plan):
    names, node = [], plan
    while node is not None:
        names.append(type(node).__name__)
        children = node.children()
        node = children[0] if children else None
    return names


LAGHOS = (
    "SELECT min(vertex_id) AS vid, avg(e) AS avg_e FROM t "
    "WHERE x BETWEEN 0.8 AND 3.2 GROUP BY vertex_id ORDER BY avg_e LIMIT 100"
)


class TestExtractor:
    def test_candidate_kinds_in_order(self):
        scan, candidates = OperatorExtractor().extract(make_plan(LAGHOS))
        kinds = [c.kind for c in candidates]
        assert kinds == ["filter", "aggregation", "rename", "topn", "output"]

    def test_filter_conditions_extracted(self):
        _, candidates = OperatorExtractor().extract(make_plan(LAGHOS))
        filt = candidates[0]
        assert filt.conditions["referenced_columns"] == ["x"]
        assert filt.conditions["term_count"] > 1

    def test_aggregation_conditions(self):
        _, candidates = OperatorExtractor().extract(make_plan(LAGHOS))
        agg = next(c for c in candidates if c.kind == "aggregation")
        assert agg.conditions["group_keys"] == ["vertex_id"]
        assert [f[0] for f in agg.conditions["functions"]] == ["min", "avg"]

    def test_topn_conditions(self):
        _, candidates = OperatorExtractor().extract(make_plan(LAGHOS))
        topn = next(c for c in candidates if c.kind == "topn")
        assert topn.conditions["limit"] == 100
        assert topn.conditions["sort_keys"] == [("avg_e", False)]

    def test_expression_project_is_project_kind(self):
        _, candidates = OperatorExtractor().extract(
            make_plan("SELECT max(x * 2.0) FROM t GROUP BY tag")
        )
        kinds = [c.kind for c in candidates]
        assert "project" in kinds


class TestPolicy:
    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            PushdownPolicy.operators("filter", "join")

    def test_named_constructors(self):
        assert PushdownPolicy.none().enabled == frozenset()
        assert PushdownPolicy.filter_only().enabled == {"filter"}
        assert "topn" in PushdownPolicy.all_operators().enabled


class TestOptimizerRewrite:
    def test_none_policy_pushes_nothing(self):
        plan = optimize(LAGHOS, PushdownPolicy.none())
        handle = scan_of(plan).connector_handle
        assert isinstance(handle, OcsTableHandle)
        assert not handle.pushed.any_pushdown
        # Residual plan keeps every operator.
        assert "FilterNode" in chain_names(plan)
        assert "AggregationNode" in chain_names(plan)

    def test_filter_only(self):
        plan = optimize(LAGHOS, PushdownPolicy.filter_only())
        handle = scan_of(plan).connector_handle
        assert handle.pushed.filter is not None
        assert handle.pushed.aggregation is None
        assert "FilterNode" not in chain_names(plan)
        assert "AggregationNode" in chain_names(plan)

    def test_full_pushdown_single_node(self):
        plan = optimize(LAGHOS, PushdownPolicy.all_operators())
        handle = scan_of(plan).connector_handle
        pushed = handle.pushed
        assert pushed.filter is not None
        assert pushed.aggregation is not None
        assert pushed.aggregation.phase == "single"
        assert pushed.topn is not None
        # Residual: merge TopN + Output only.
        names = chain_names(plan)
        assert "AggregationNode" not in names
        assert "FilterNode" not in names
        assert names.count("TopNNode") == 1

    def test_multi_node_aggregation_is_partial(self):
        plan = optimize(LAGHOS, PushdownPolicy.all_operators(), nodes=3)
        handle = scan_of(plan).connector_handle
        assert handle.pushed.aggregation.phase == "partial"
        # TopN must NOT push over partial aggregation...
        assert handle.pushed.topn is None
        # ...and a residual final aggregation merges the states.
        aggs = [n for n in _walk(plan) if isinstance(n, AggregationNode)]
        assert len(aggs) == 1 and aggs[0].phase == "final"

    def test_pushdown_stops_at_first_refusal(self):
        # aggregate enabled but filter NOT: nothing pushes (order constraint).
        plan = optimize(LAGHOS, PushdownPolicy.operators("aggregate", "topn"))
        handle = scan_of(plan).connector_handle
        assert not handle.pushed.any_pushdown

    def test_projection_fused_into_aggregation(self):
        plan = optimize(
            "SELECT tag, max(x * 2.0) FROM t WHERE x > 1.0 GROUP BY tag",
            PushdownPolicy.operators("filter", "project", "aggregate"),
        )
        pushed = scan_of(plan).connector_handle.pushed
        assert pushed.projections is None  # fused away
        assert pushed.aggregation is not None
        arg = pushed.aggregation.arg_expressions[0]
        assert not isinstance(arg, ColumnExpr)  # the expression itself

    def test_projection_without_agg_adds_passthrough(self):
        plan = optimize(
            "SELECT tag, max(x * 2.0) FROM t WHERE x > 1.0 GROUP BY tag",
            PushdownPolicy.operators("filter", "project"),
        )
        pushed = scan_of(plan).connector_handle.pushed
        assert pushed.projections is not None
        names = [n for n, _ in pushed.projections]
        # SELECT exprs, * semantics: scanned columns ride along.
        assert "x" in names and "tag" in names

    def test_statistics_gate_blocks_weak_filter(self):
        # x > 0.0 passes everything; with stats gating it must not push.
        policy = PushdownPolicy(
            enabled=frozenset({"filter"}),
            use_statistics=True,
            filter_selectivity_threshold=0.5,
        )
        plan = optimize("SELECT x FROM t WHERE x > 0.1", policy)
        assert scan_of(plan).connector_handle.pushed.filter is None

    def test_statistics_gate_allows_selective_filter(self):
        policy = PushdownPolicy(
            enabled=frozenset({"filter"}),
            use_statistics=True,
            filter_selectivity_threshold=0.5,
        )
        plan = optimize("SELECT x FROM t WHERE x > 3.9", policy)
        assert scan_of(plan).connector_handle.pushed.filter is not None

    def test_statistics_gate_on_aggregation(self):
        # e has 90k NDV over 100k rows: grouping barely reduces.
        policy = PushdownPolicy(
            enabled=frozenset({"filter", "aggregate"}),
            use_statistics=True,
            aggregation_selectivity_threshold=0.5,
        )
        plan = optimize(
            "SELECT e, count(*) FROM t WHERE x > 3.9 GROUP BY e", policy
        )
        pushed = scan_of(plan).connector_handle.pushed
        assert pushed.filter is not None
        assert pushed.aggregation is None

    def test_having_not_pushed(self):
        plan = optimize(
            "SELECT tag FROM t GROUP BY tag HAVING count(*) > 5",
            PushdownPolicy.all_operators(),
        )
        pushed = scan_of(plan).connector_handle.pushed
        assert pushed.aggregation is not None
        # The HAVING filter survives as a residual FilterNode.
        assert any(isinstance(n, FilterNode) for n in _walk(plan))

    def test_sort_pushdown_keeps_residual_merge(self):
        plan = optimize(
            "SELECT x FROM t WHERE x > 1.0 ORDER BY x",
            PushdownPolicy.operators("filter", "project", "sort"),
        )
        pushed = scan_of(plan).connector_handle.pushed
        assert pushed.sort is not None
        assert any(isinstance(n, SortNode) for n in _walk(plan))

    def test_output_schema_of_rewritten_scan(self):
        plan = optimize(LAGHOS, PushdownPolicy.all_operators())
        scan = scan_of(plan)
        assert scan.output_schema().names() == ["vid", "avg_e"]


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)
