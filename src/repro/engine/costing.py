"""Compute-node (JVM engine) operator cost functions.

Each operator that ran (for real) reports ``rows_in``; these functions
convert that observed work into virtual cycles on the Presto side of the
cost model — the heavyweight row-oriented path, per the calibration notes
in :mod:`repro.sim.costmodel`.
"""

from __future__ import annotations

from typing import Sequence

from repro.exec.kernels import FusedFilterProjectOperator
from repro.exec.operators import (
    FilterOperator,
    HashAggregationOperator,
    HashJoinOperator,
    LimitOperator,
    Operator,
    ProjectOperator,
    SortOperator,
    TopNOperator,
)
from repro.sim.costmodel import CostParams

__all__ = [
    "presto_operator_cycles",
    "presto_pipeline_cycles",
    "choose_join_distribution",
]


def presto_operator_cycles(op: Operator, costs: CostParams) -> float:
    """Cycles the compute engine spends running one operator instance."""
    if isinstance(op, LimitOperator):
        # Pass-through slicing: no per-row materialization.
        return op.rows_in * 5.0
    base = op.rows_in * costs.presto_row_overhead_per_op
    if isinstance(op, FusedFilterProjectOperator):
        # One pass over the page chain: per-row operator overhead is paid
        # once for the whole fused run, and expression cost is charged on
        # the cells *actually evaluated* (short-circuit selection + CSE
        # mean far fewer cells than the unfused operators evaluate).
        return base + op.eval_cell_ops * costs.vector_op_cycles_per_value
    if isinstance(op, FilterOperator):
        return base + (
            op.rows_in * op.predicate.node_count() * costs.vector_op_cycles_per_value
        )
    if isinstance(op, ProjectOperator):
        return base + (
            op.rows_in * op.expression_node_count * costs.vector_op_cycles_per_value
        )
    if isinstance(op, HashAggregationOperator):
        return base + op.rows_in * (
            costs.group_hash_cycles_per_row
            + len(op.specs) * costs.agg_update_cycles_per_row_per_func
        )
    if isinstance(op, HashJoinOperator):
        return base + (
            op.build_rows * costs.join_build_cycles_per_row
            + op.rows_in * costs.join_probe_cycles_per_row
        )
    if isinstance(op, TopNOperator):
        return base + op.rows_in * costs.topn_cycles_per_row
    if isinstance(op, SortOperator):
        return base + costs.sort_cycles(op.rows_in)
    return base


def presto_pipeline_cycles(operators: Sequence[Operator], costs: CostParams) -> float:
    """Total cycles for a chain of already-run operators."""
    return sum(presto_operator_cycles(op, costs) for op in operators)


def choose_join_distribution(
    build_rows: int, probe_rows: int, workers: int
) -> str:
    """Pick how join inputs move: replicate the build side or shuffle both.

    Broadcast ships the build side to every worker (``build_rows * workers``
    rows over the exchange) but leaves the probe side in place;
    hash-partitioning ships each side once (``build_rows + probe_rows``).
    Rows moved is the whole cost difference in this model — per-row CPU on
    the join itself is identical either way — so compare those directly,
    preferring broadcast on ties (it needs one exchange stage, not two).
    """
    if workers <= 1:
        return "broadcast"
    if build_rows * workers <= build_rows + probe_rows:
        return "broadcast"
    return "partitioned"
