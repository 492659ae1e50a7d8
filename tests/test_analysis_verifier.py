"""Plan-verifier tests: valid plans pass, seeded mutations are rejected.

Each mutation below models a realistic optimizer bug — an unsound rewrite
that still *executes* (the embedded engine would happily run it) but no
longer means the same query.  The verifier must catch every one.
"""

import pytest

from repro.analysis.verifier import (
    check_expression,
    verify_logical_plan,
    verify_optimized_plan,
    verify_pushdown,
)
from repro.arrowsim.dtypes import BOOL, FLOAT64, INT64
from repro.arrowsim.schema import Field, Schema
from repro.core.handle import OcsTableHandle, PushedAggregation, PushedOperators
from repro.errors import ValidationError, VerificationError
from repro.exec.aggregates import AggregateSpec
from repro.exec.expressions import (
    ArithExpr,
    ColumnExpr,
    CompareExpr,
    LiteralExpr,
)
from repro.metastore.catalog import TableDescriptor
from repro.plan.nodes import (
    AggregationNode,
    FilterNode,
    LimitNode,
    OutputNode,
    ProjectNode,
    SortNode,
    TableScanNode,
    TopNNode,
)
from repro.sql.ast_nodes import TableName
from repro.substrait.expressions import SFieldRef, SFunctionCall, SLiteral
from repro.substrait.functions import FunctionRegistry
from repro.substrait.plan import SubstraitPlan
from repro.substrait.relations import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    NamedStruct,
    ReadRel,
    SortField,
    SortRel,
)
from repro.substrait.validator import validate_plan

SCHEMA = Schema(
    [
        Field("sensor_id", INT64),
        Field("temperature", FLOAT64),
        Field("pressure", FLOAT64),
    ]
)


def _scan(columns=None):
    return TableScanNode(
        table=TableName("readings", "lab", "repro"),
        table_schema=SCHEMA,
        columns=columns or SCHEMA.names(),
    )


def _gt(column, value, dtype=FLOAT64):
    return CompareExpr(">", ColumnExpr(column, dtype), LiteralExpr(value, dtype))


# -- check_expression ---------------------------------------------------------


class TestCheckExpression:
    def test_column_and_comparison(self):
        assert check_expression(_gt("temperature", 25.0), SCHEMA) is BOOL

    def test_arithmetic(self):
        expr = ArithExpr(
            "*", ColumnExpr("temperature", FLOAT64), LiteralExpr(2.0, FLOAT64), FLOAT64
        )
        assert check_expression(expr, SCHEMA) is FLOAT64

    def test_unknown_column_rejected(self):
        with pytest.raises(VerificationError, match="humidity"):
            check_expression(ColumnExpr("humidity", FLOAT64), SCHEMA)

    def test_dtype_swap_rejected(self):
        # A column reference that lies about its dtype: the classic
        # stale-schema bug after a rewrite changed an upstream projection.
        with pytest.raises(VerificationError):
            check_expression(ColumnExpr("temperature", INT64), SCHEMA)

    def test_declared_arith_dtype_must_match(self):
        expr = ArithExpr(
            "+", ColumnExpr("temperature", FLOAT64), LiteralExpr(1.0, FLOAT64), INT64
        )
        with pytest.raises(VerificationError):
            check_expression(expr, SCHEMA)


# -- verify_logical_plan ------------------------------------------------------


class TestVerifyLogicalPlan:
    def test_full_chain_passes(self):
        plan = OutputNode(
            TopNNode(
                AggregationNode(
                    FilterNode(_scan(), _gt("temperature", 25.0)),
                    ["sensor_id"],
                    [AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
                ),
                5,
                [("avg_temp", True)],
            ),
            ["sensor_id", "avg_temp"],
        )
        out = verify_logical_plan(plan)
        assert out.names() == ["sensor_id", "avg_temp"]
        assert out.field("avg_temp").dtype is FLOAT64

    def test_non_boolean_filter_rejected(self):
        plan = FilterNode(_scan(), ColumnExpr("temperature", FLOAT64))
        with pytest.raises(VerificationError, match="BOOL"):
            verify_logical_plan(plan)

    def test_widened_grouping_key_rejected(self):
        # Mutation: the rewrite widened the grouping to a column the scan
        # no longer produces.
        plan = AggregationNode(
            _scan(["sensor_id", "temperature"]),
            ["sensor_id", "pressure"],
            [AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
        )
        with pytest.raises(VerificationError, match="pressure"):
            verify_logical_plan(plan)

    def test_sort_key_must_exist(self):
        plan = SortNode(_scan(["sensor_id"]), [("temperature", False)])
        with pytest.raises(VerificationError, match="temperature"):
            verify_logical_plan(plan)

    def test_negative_limit_rejected(self):
        with pytest.raises(VerificationError):
            verify_logical_plan(LimitNode(_scan(), -1))

    def test_duplicate_projection_names_rejected(self):
        plan = ProjectNode(
            _scan(),
            [
                ("x", ColumnExpr("sensor_id", INT64)),
                ("x", ColumnExpr("temperature", FLOAT64)),
            ],
        )
        with pytest.raises(VerificationError, match="duplicate"):
            verify_logical_plan(plan)

    def test_final_aggregation_consumes_partial_fields(self):
        partial = AggregationNode(
            _scan(),
            ["sensor_id"],
            [AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
            phase="partial",
        )
        final = AggregationNode(
            partial,
            ["sensor_id"],
            [AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
            phase="final",
        )
        out = verify_logical_plan(final)
        assert out.names() == ["sensor_id", "avg_temp"]


# -- verify_pushdown ----------------------------------------------------------


def _avg_push(phase, keys=("sensor_id",)):
    return PushedOperators(
        columns=["sensor_id", "temperature"],
        aggregation=PushedAggregation(
            key_names=list(keys),
            specs=[AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
            phase=phase,
        ),
    )


class TestVerifyPushdown:
    def test_filter_and_aggregation_pass(self):
        pushed = _avg_push("single")
        pushed.filter = _gt("temperature", 25.0)
        out = verify_pushdown(pushed, SCHEMA, split_count=1)
        assert out.names() == ["sensor_id", "avg_temp"]

    def test_partial_states_widen_schema(self):
        out = verify_pushdown(_avg_push("partial"), SCHEMA, split_count=4)
        assert out.names() == ["sensor_id", "avg_temp$sum", "avg_temp$count"]

    def test_single_phase_over_many_splits_rejected(self):
        # The soundness rule the optimizer must never violate: per-split
        # final aggregates cannot be merged.
        with pytest.raises(VerificationError, match="unsound"):
            verify_pushdown(_avg_push("single"), SCHEMA, split_count=4)

    def test_grouping_key_outside_scan_rejected(self):
        with pytest.raises(VerificationError, match="pressure"):
            verify_pushdown(_avg_push("single", keys=("pressure",)), SCHEMA)

    def test_topn_above_partial_aggregation_rejected(self):
        pushed = _avg_push("partial")
        pushed.topn = (5, [("avg_temp$sum", True)])
        with pytest.raises(VerificationError, match="partial"):
            verify_pushdown(pushed, SCHEMA, split_count=4)

    def test_filter_must_be_boolean(self):
        pushed = PushedOperators(
            columns=["temperature"], filter=ColumnExpr("temperature", FLOAT64)
        )
        with pytest.raises(VerificationError, match="BOOL"):
            verify_pushdown(pushed, SCHEMA)

    def test_unknown_scan_column_rejected(self):
        with pytest.raises(VerificationError, match="humidity"):
            verify_pushdown(PushedOperators(columns=["humidity"]), SCHEMA)


# -- the typed Substrait check (repro.substrait.validator.validate_plan) ---------


def _base_struct():
    return NamedStruct.from_schema(SCHEMA)


def _read(projection=(0, 1, 2)):
    return ReadRel(table="lab.readings", base_schema=_base_struct(), projection=projection)


class TestVerifySubstraitPlan:
    """Seeded IR mutations the typed Substrait check must reject."""

    def test_topn_plan_passes(self):
        root = FetchRel(SortRel(_read(), (SortField(1, True),)), 0, 5)
        types = validate_plan(SubstraitPlan(root=root))
        assert types == [INT64, FLOAT64, FLOAT64]

    def test_filtered_read_passes(self):
        registry = FunctionRegistry()
        condition = SFunctionCall(
            anchor=registry.anchor_for("gt", [FLOAT64, FLOAT64]),
            args=(SFieldRef(1, FLOAT64), SLiteral(25.0, FLOAT64)),
            dtype=BOOL,
        )
        plan = SubstraitPlan(root=FilterRel(_read(), condition), registry=registry)
        assert validate_plan(plan) == [INT64, FLOAT64, FLOAT64]

    def test_sort_separated_from_fetch_rejected(self):
        # Mutation: a rewrite slid a filter between sort and fetch — the
        # "top-N" no longer selects the overall top rows.
        registry = FunctionRegistry()
        condition = SFunctionCall(
            anchor=registry.anchor_for("gt", [FLOAT64, FLOAT64]),
            args=(SFieldRef(1, FLOAT64), SLiteral(25.0, FLOAT64)),
            dtype=BOOL,
        )
        root = FetchRel(
            FilterRel(SortRel(_read(), (SortField(1, True),)), condition), 0, 5
        )
        with pytest.raises(ValidationError, match="adjacency"):
            validate_plan(SubstraitPlan(root=root, registry=registry))

    def test_dropped_sort_leaves_fetch_as_plain_limit(self):
        # Dropping the sort under a fetch is legal IR (it is LIMIT without
        # ORDER BY) — but the dtype mutation below is not.
        root = FetchRel(_read(), 0, 5)
        assert validate_plan(SubstraitPlan(root=root))

    def test_field_ref_dtype_swap_rejected(self):
        registry = FunctionRegistry()
        condition = SFunctionCall(
            anchor=registry.anchor_for("gt", [FLOAT64, FLOAT64]),
            # Ordinal 0 is sensor_id INT64; the ref claims FLOAT64.
            args=(SFieldRef(0, FLOAT64), SLiteral(25.0, FLOAT64)),
            dtype=BOOL,
        )
        plan = SubstraitPlan(root=FilterRel(_read(), condition), registry=registry)
        with pytest.raises(ValidationError, match="field ref"):
            validate_plan(plan)

    def test_signature_mismatch_rejected(self):
        registry = FunctionRegistry()
        # Anchor registered for int comparison, used with float args.
        anchor = registry.anchor_for("gt", [INT64, INT64])
        condition = SFunctionCall(
            anchor=anchor,
            args=(SFieldRef(1, FLOAT64), SLiteral(25.0, FLOAT64)),
            dtype=BOOL,
        )
        plan = SubstraitPlan(root=FilterRel(_read(), condition), registry=registry)
        with pytest.raises(ValidationError, match="recompute"):
            validate_plan(plan)

    def test_mixed_measure_phases_rejected(self):
        registry = FunctionRegistry()
        sum_anchor = registry.anchor_for("sum", [FLOAT64])
        count_anchor = registry.anchor_for("count", [])
        rel = AggregateRel(
            input=_read(),
            grouping=(0,),
            measures=(
                AggregateMeasure(
                    anchor=sum_anchor,
                    function="sum",
                    args=(SFieldRef(1, FLOAT64),),
                    output_dtype=FLOAT64,
                    phase="partial",
                ),
                AggregateMeasure(
                    anchor=count_anchor,
                    function="count",
                    args=(),
                    output_dtype=INT64,
                    phase="single",
                ),
            ),
        )
        with pytest.raises(ValidationError, match="mix phases"):
            validate_plan(SubstraitPlan(root=rel, registry=registry))

    def test_consistent_measure_phases_pass(self):
        registry = FunctionRegistry()
        rel = AggregateRel(
            input=_read(),
            grouping=(0,),
            measures=(
                AggregateMeasure(
                    anchor=registry.anchor_for("avg", [FLOAT64]),
                    function="avg",
                    args=(SFieldRef(1, FLOAT64),),
                    output_dtype=FLOAT64,
                    phase="partial",
                ),
            ),
        )
        types = validate_plan(SubstraitPlan(root=rel, registry=registry))
        # Partial avg ships its (sum, count) state pair.
        assert types == [INT64, FLOAT64, INT64]

    def test_root_names_width_checked(self):
        plan = SubstraitPlan(root=_read(), root_names=["only_one"])
        with pytest.raises(ValidationError, match="root names"):
            validate_plan(plan)


# -- verify_optimized_plan ----------------------------------------------------


def _descriptor():
    return TableDescriptor(
        schema_name="lab",
        table_name="readings",
        table_schema=SCHEMA,
        bucket="sensors",
        key_prefix="lab/readings",
        files=["part-0.parcel"],
    )


def _optimized(pushed):
    """Residual plan whose scan carries ``pushed`` (what the optimizer emits)."""
    handle = OcsTableHandle(descriptor=_descriptor(), pushed=pushed)
    out_schema = pushed.output_schema(SCHEMA)
    return TableScanNode(
        table=TableName("readings", "lab", "repro"),
        table_schema=out_schema,
        columns=out_schema.names(),
        connector_handle=handle,
    )


class TestVerifyOptimizedPlan:
    def test_pushed_filter_equivalence_passes(self):
        pre = OutputNode(
            FilterNode(_scan(), _gt("temperature", 25.0)), SCHEMA.names()
        )
        residual = OutputNode(
            _optimized(
                PushedOperators(
                    columns=SCHEMA.names(), filter=_gt("temperature", 25.0)
                )
            ),
            SCHEMA.names(),
        )
        verify_optimized_plan(pre, residual, split_count=1)

    def test_dropped_output_column_rejected(self):
        pre = OutputNode(
            FilterNode(_scan(), _gt("temperature", 25.0)), SCHEMA.names()
        )
        # Mutation: the residual scan silently lost a column.
        residual = OutputNode(
            _optimized(
                PushedOperators(
                    columns=["sensor_id", "temperature"],
                    filter=_gt("temperature", 25.0),
                )
            ),
            ["sensor_id", "temperature"],
        )
        with pytest.raises(VerificationError, match="disagrees"):
            verify_optimized_plan(pre, residual, split_count=1)

    def test_vanished_operator_rejected(self):
        # Mutation: the filter was dropped during pushdown negotiation and
        # never landed in either half.  Schemas still agree (filters do
        # not change schemas) — only operator coverage catches this.
        pre = OutputNode(
            FilterNode(_scan(), _gt("temperature", 25.0)), SCHEMA.names()
        )
        residual = OutputNode(
            _optimized(PushedOperators(columns=SCHEMA.names())), SCHEMA.names()
        )
        with pytest.raises(VerificationError, match="neither pushed nor residual"):
            verify_optimized_plan(pre, residual, split_count=1)

    def test_partial_aggregation_without_final_rejected(self):
        pre = OutputNode(
            AggregationNode(
                _scan(["sensor_id", "temperature"]),
                ["sensor_id"],
                [AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
            ),
            ["sensor_id", "avg_temp"],
        )
        pushed = PushedOperators(
            columns=["sensor_id", "temperature"],
            aggregation=PushedAggregation(
                key_names=["sensor_id"],
                specs=[AggregateSpec("avg", "temperature", "avg_temp", FLOAT64)],
                phase="partial",
            ),
        )
        # Mutation: residual final aggregation went missing, so the query
        # would return raw (sum, count) state columns.
        residual = OutputNode(_optimized(pushed), ["sensor_id", "avg_temp"])
        with pytest.raises(VerificationError):
            verify_optimized_plan(pre, residual, split_count=4)
