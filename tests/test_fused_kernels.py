"""Unit + property tests for the fused filter/project kernel compiler."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrowsim import FLOAT64, INT64, Field, RecordBatch, Schema
from repro.arrowsim.record_batch import concat_batches
from repro.exec import (
    AndExpr,
    ArithExpr,
    ColumnExpr,
    CompareExpr,
    FilterOperator,
    FusedFilterProjectOperator,
    FusionStats,
    InExpr,
    LimitOperator,
    LiteralExpr,
    ProjectOperator,
    fuse_operators,
)
from repro.engine.costing import presto_pipeline_cycles
from repro.exec.expressions import ScalarFuncExpr
from repro.exec.operators import run_operators
from repro.sim.costmodel import DEFAULT_COSTS

X = ColumnExpr("x", INT64)
Y = ColumnExpr("y", FLOAT64)
Z = ColumnExpr("z", FLOAT64)

SCHEMA = Schema([Field("x", INT64), Field("y", FLOAT64), Field("z", FLOAT64)])


def make_batch(x, y, z):
    return RecordBatch.from_pydict(SCHEMA, {"x": x, "y": y, "z": z})


SAMPLE = make_batch(
    x=[1, 2, 3, None, 5, 6, 7, 8],
    y=[0.5, 1.5, None, 2.5, -2.5, 3.5, 0.0, 9.0],
    z=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
)


def _lit(v, dtype=INT64):
    return LiteralExpr(v, dtype)


def run_both(operators, pages):
    """(unfused output, fused output, stats) for the same operator chain.

    Also checks the cost guarantee that makes fusion the only compute
    path: the fused pipeline is never charged more cycles than the
    unfused operators for the same pages.
    """
    tree = concat_batches(run_operators(pages, operators))
    stats = FusionStats()
    fused_ops = fuse_operators(operators, stats)
    fused = concat_batches(run_operators(pages, fused_ops))
    assert presto_pipeline_cycles(fused_ops, DEFAULT_COSTS) <= presto_pipeline_cycles(
        operators, DEFAULT_COSTS
    )
    return tree, fused, stats


class TestCompilation:
    def test_filter_project_run_becomes_one_operator(self):
        ops = fuse_operators(
            [FilterOperator(CompareExpr(">", X, _lit(2))),
             ProjectOperator([("x", X)])]
        )
        assert len(ops) == 1
        assert isinstance(ops[0], FusedFilterProjectOperator)

    def test_non_fusible_operator_delimits_runs(self):
        ops = fuse_operators(
            [
                FilterOperator(CompareExpr(">", X, _lit(2))),
                LimitOperator(5),
                FilterOperator(CompareExpr("<", X, _lit(100))),
                ProjectOperator([("x", X)]),
            ]
        )
        assert [type(op).__name__ for op in ops] == [
            "FusedFilterProjectOperator",
            "LimitOperator",
            "FusedFilterProjectOperator",
        ]

    def test_and_splits_into_short_circuit_conjuncts(self):
        pred = AndExpr(
            (
                CompareExpr(">", X, _lit(0)),
                AndExpr(
                    (CompareExpr("<", X, _lit(10)),
                     CompareExpr("<>", X, _lit(5))),
                ),
            )
        )
        stats = FusionStats()
        (op,) = fuse_operators([FilterOperator(pred)], stats)
        assert len(op.predicates) == 3
        assert stats.predicates == 3

    def test_shared_subexpression_evaluated_once(self):
        energy = ArithExpr("*", Y, Z, FLOAT64)
        ops = [
            FilterOperator(
                CompareExpr(">", energy, LiteralExpr(1.0, FLOAT64))
            ),
            ProjectOperator(
                [("e", energy),
                 ("e2", ArithExpr("+", energy, Y, FLOAT64))]
            ),
        ]
        stats = FusionStats()
        (fused,) = fuse_operators(ops, stats)
        assert stats.cse_definitions == 1
        assert stats.cse_references_saved == 2
        # The shared subtree now lives behind a synthetic column.
        assert list(fused.cse_defs) == ["$cse0"]
        assert fused.cse_defs["$cse0"] == energy

    def test_single_use_cse_definitions_are_inlined(self):
        # y*z appears twice, but only ever inside (y*z)+y, which itself
        # appears twice: only the outer subtree survives as a definition.
        inner = ArithExpr("*", Y, Z, FLOAT64)
        outer = ArithExpr("+", inner, Y, FLOAT64)
        ops = [
            FilterOperator(CompareExpr(">", outer, LiteralExpr(0.0, FLOAT64))),
            ProjectOperator([("o", outer)]),
        ]
        stats = FusionStats()
        (fused,) = fuse_operators(ops, stats)
        assert stats.cse_definitions == 1
        ((_, body),) = fused.cse_defs.items()
        assert body == outer

    def test_filter_after_project_rewrites_through_namespace(self):
        doubled = ArithExpr("*", X, _lit(2), INT64)
        ops = [
            ProjectOperator([("d", doubled)]),
            FilterOperator(CompareExpr(">", ColumnExpr("d", INT64), _lit(6))),
        ]
        tree, fused, stats = run_both(ops, [SAMPLE])
        assert stats.fallbacks == 0
        assert tree.equals(fused)

    def test_unknown_column_falls_back_to_unfused(self):
        ops = [
            ProjectOperator([("d", X)]),
            FilterOperator(CompareExpr(">", ColumnExpr("ghost", INT64), _lit(0))),
        ]
        stats = FusionStats()
        out = fuse_operators(ops, stats)
        assert stats.fallbacks == 1
        assert [type(op).__name__ for op in out] == [
            "ProjectOperator",
            "FilterOperator",
        ]


class TestExecution:
    def test_passthrough_filter_matches_tree(self):
        ops = [FilterOperator(CompareExpr(">", X, _lit(3)))]
        tree, fused, _ = run_both(ops, [SAMPLE])
        assert tree.equals(fused)
        assert tree.schema.names() == ["x", "y", "z"]

    def test_null_predicate_rows_are_dropped(self):
        # x = NULL and y = NULL rows are not definitely TRUE.
        ops = [
            FilterOperator(
                AndExpr(
                    (CompareExpr(">", X, _lit(0)),
                     CompareExpr(">", Y, LiteralExpr(0.0, FLOAT64))),
                )
            )
        ]
        tree, fused, _ = run_both(ops, [SAMPLE])
        assert tree.equals(fused)
        assert fused.num_rows == 4  # rows 0, 1, 5, 7

    def test_in_predicate_fuses(self):
        # Join Bloom/IN probes arrive as ordinary boolean filters.
        ops = [
            FilterOperator(InExpr(X, (1, 5, 7), negated=False)),
            ProjectOperator([("x", X), ("z", Z)]),
        ]
        tree, fused, stats = run_both(ops, [SAMPLE])
        assert stats.fallbacks == 0
        assert tree.equals(fused)
        assert fused.num_rows == 3

    def test_empty_page(self):
        empty = make_batch(x=[], y=[], z=[])
        ops = [
            FilterOperator(CompareExpr(">", X, _lit(0))),
            ProjectOperator([("x", X)]),
        ]
        tree, fused, _ = run_both(ops, [empty])
        assert tree.equals(fused)
        assert fused.num_rows == 0

    def test_pure_literal_projection(self):
        ops = [
            FilterOperator(CompareExpr(">", X, _lit(6))),
            ProjectOperator([("one", _lit(1))]),
        ]
        tree, fused, _ = run_both(ops, [SAMPLE])
        assert tree.equals(fused)
        assert fused.to_pydict() == {"one": [1, 1]}

    def test_late_materialization_skips_unreferenced_columns(self):
        (fused,) = fuse_operators(
            [
                FilterOperator(CompareExpr(">", X, _lit(100))),  # drops all
                ProjectOperator([("y", Y)]),
            ]
        )
        out = run_operators([SAMPLE], [fused])
        assert concat_batches(out).num_rows == 0
        # x feeds the predicate and y the projection (gathered at zero
        # surviving rows); z is never referenced and never gathered.
        assert fused.columns_gathered == 2
        assert fused.rows_skipped == SAMPLE.num_rows

    def test_multi_page_accounting_matches_tree_rows(self):
        pages = [
            make_batch(x=[1, 2, 3], y=[0.1, 0.2, 0.3], z=[1.0, 2.0, 3.0]),
            make_batch(x=[4, 5, 6], y=[0.4, 0.5, 0.6], z=[4.0, 5.0, 6.0]),
        ]
        ops = [
            FilterOperator(CompareExpr(">", X, _lit(2))),
            ProjectOperator([("x", X), ("yz", ArithExpr("*", Y, Z, FLOAT64))]),
        ]
        tree, fused, _ = run_both(ops, pages)
        assert tree.equals(fused)
        assert fused.num_rows == 4


# --------------------------------------------------------------------------
# Property tests: fused == tree == numpy oracle, NULLs included
# --------------------------------------------------------------------------

values_and_nulls = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(2**62), max_value=2**62)),
    min_size=0,
    max_size=60,
)


def _oracle(x_list):
    """Plain-python reference: trunc division / dividend-sign mod."""
    rows = []
    for x in x_list:
        if x is None:
            continue  # NULL is never definitely TRUE at the filter
        sign = 1 if x >= 0 else -1
        m = sign * (abs(x) % 7)
        if m == 0:
            continue
        q = sign * (abs(x) // 3)
        rows.append((x, m, q))
    return rows


@settings(max_examples=60, deadline=None)
@given(values_and_nulls)
def test_property_fused_matches_tree_and_oracle(x_list):
    schema = Schema([Field("x", INT64)])
    batch = RecordBatch.from_pydict(schema, {"x": x_list})
    x = ColumnExpr("x", INT64)
    ops = [
        FilterOperator(
            CompareExpr("<>", ArithExpr("%", x, _lit(7), INT64), _lit(0))
        ),
        ProjectOperator(
            [
                ("x", x),
                ("m", ArithExpr("%", x, _lit(7), INT64)),
                ("q", ArithExpr("/", x, _lit(3), INT64)),
            ]
        ),
    ]
    tree, fused, stats = run_both(ops, [batch])
    assert stats.fallbacks == 0
    assert tree.equals(fused)
    got = list(zip(*(fused.to_pydict()[c] for c in ("x", "m", "q")))) if fused.num_rows else []
    assert got == _oracle(x_list)


float_columns = st.lists(
    st.one_of(
        st.none(),
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(float_columns, st.integers(min_value=0, max_value=3))
def test_property_float_round_pipeline(y_list, shift):
    schema = Schema([Field("y", FLOAT64)])
    batch = RecordBatch.from_pydict(schema, {"y": y_list})
    y = ColumnExpr("y", FLOAT64)
    shifted = ArithExpr("+", y, LiteralExpr(float(shift), FLOAT64), FLOAT64)
    ops = [
        FilterOperator(
            CompareExpr(">", shifted, LiteralExpr(0.0, FLOAT64))
        ),
        ProjectOperator(
            [
                ("r", ScalarFuncExpr("round", shifted, FLOAT64)),
                ("s", shifted),
            ]
        ),
    ]
    tree, fused, _ = run_both(ops, [batch])
    assert tree.equals(fused)
    # Oracle: half-away-from-zero on the surviving (definitely > 0) rows.
    expect = [
        float(np.copysign(np.floor(abs(v + shift) + 0.5), v + shift))
        for v in y_list
        if v is not None and v + shift > 0
    ]
    assert fused.to_pydict().get("r", []) == expect
