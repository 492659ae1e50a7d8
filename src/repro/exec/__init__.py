"""Vectorized query execution: typed expressions, operators, pipelines.

The same operator kernels execute in both engines — the Presto-class
compute engine (:mod:`repro.engine`) and the OCS embedded engine
(:mod:`repro.ocs`).  What differs between them is the *cost* each side is
charged by the simulator, not the answers: results are bit-identical by
construction, which is the pushdown-transparency invariant the test suite
hammers on.

Data flows as :class:`repro.arrowsim.RecordBatch` pages.
"""

from repro.exec.expressions import (
    AndExpr,
    ArithExpr,
    CastExpr,
    ColumnExpr,
    CompareExpr,
    Expr,
    InExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
    NotExpr,
    OrExpr,
)
from repro.exec.aggregates import AggregateSpec, grouped_aggregate, global_aggregate
from repro.exec.kernels import FusedFilterProjectOperator, FusionStats, fuse_operators
from repro.exec.operators import (
    FilterOperator,
    HashAggregationOperator,
    LimitOperator,
    Operator,
    ProjectOperator,
    SortOperator,
    TopNOperator,
    run_operators,
)

__all__ = [
    "AggregateSpec",
    "AndExpr",
    "ArithExpr",
    "CastExpr",
    "ColumnExpr",
    "CompareExpr",
    "Expr",
    "FilterOperator",
    "FusedFilterProjectOperator",
    "FusionStats",
    "HashAggregationOperator",
    "InExpr",
    "IsNullExpr",
    "LimitOperator",
    "LiteralExpr",
    "NegExpr",
    "NotExpr",
    "Operator",
    "OrExpr",
    "ProjectOperator",
    "SortOperator",
    "TopNOperator",
    "fuse_operators",
    "global_aggregate",
    "grouped_aggregate",
    "run_operators",
]
