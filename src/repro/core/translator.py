"""Substrait translation: pushed operators -> a transportable plan.

The paper's PageSourceProvider "reconstructs the pushdown target
operators and their associated conditions into SQL statements ... then
translated into Substrait IR through complex mappings: SQL clauses become
Substrait relations, expressions are transformed with proper type
casting, and Presto's function signatures map to Substrait's standardized
namespace."  This module is those mappings: name-based engine structures
become ordinal-based relations, engine functions become registry anchors,
and the pushed filter doubles as the ReadRel's best-effort filter so
storage can prune row groups from chunk statistics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.core.handle import OcsTableHandle, PushedOperators
from repro.exec.expressions import AndExpr
from repro.metastore.catalog import TableDescriptor
from repro.substrait.convert import expression_to_substrait
from repro.substrait.functions import FunctionRegistry
from repro.substrait.plan import SubstraitPlan
from repro.substrait.serde import serialize_plan
from repro.substrait.relations import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    NamedStruct,
    ProjectRel,
    ReadRel,
    Relation,
    SortField,
    SortRel,
)

__all__ = ["build_pushdown_plan", "pushed_plan", "spliced_plan"]


def build_pushdown_plan(
    descriptor: TableDescriptor, pushed: PushedOperators
) -> SubstraitPlan:
    """Translate the handle's pushed operator chain into IR.

    The plan is checked where it enters storage, at the OCS frontend.
    """
    registry = FunctionRegistry()
    table_schema = descriptor.table_schema

    projection = tuple(table_schema.index_of(name) for name in pushed.columns)
    names: List[str] = list(pushed.columns)

    dynamic_filter = getattr(pushed, "dynamic_filter", None)
    best_effort_parts = [
        expr for expr in (pushed.filter, dynamic_filter) if expr is not None
    ]
    best_effort = None
    if best_effort_parts:
        combined = (
            best_effort_parts[0]
            if len(best_effort_parts) == 1
            else AndExpr(tuple(best_effort_parts))
        )
        best_effort = expression_to_substrait(combined, names, registry)
    rel: Relation = ReadRel(
        table=descriptor.qualified_name,
        base_schema=NamedStruct.from_schema(table_schema),
        projection=projection,
        best_effort_filter=best_effort,
    )

    # The dynamic join filter gets its own FilterRel directly above the
    # read (before the static filter) so the storage engine can attribute
    # the rows it eliminates separately from WHERE-clause filtering.
    if dynamic_filter is not None:
        rel = FilterRel(rel, expression_to_substrait(dynamic_filter, names, registry))

    if pushed.filter is not None:
        rel = FilterRel(rel, expression_to_substrait(pushed.filter, names, registry))

    if pushed.projections is not None:
        exprs = tuple(
            expression_to_substrait(expr, names, registry)
            for _, expr in pushed.projections
        )
        rel = ProjectRel(rel, exprs)
        names = [name for name, _ in pushed.projections]

    if pushed.aggregation is not None:
        agg = pushed.aggregation
        grouping = tuple(names.index(k) for k in agg.key_names)
        measures = []
        for spec, arg_expr in zip(agg.specs, agg.arg_expressions):
            if arg_expr is not None:
                args = (expression_to_substrait(arg_expr, names, registry),)
                arg_types = [arg_expr.dtype]
            else:
                args = ()
                arg_types = []
            anchor = registry.anchor_for(spec.func, arg_types)
            measures.append(
                AggregateMeasure(
                    anchor=anchor,
                    function=spec.func,
                    args=args,
                    output_dtype=spec.output_dtype,
                    distinct=spec.distinct,
                    phase=agg.phase,
                )
            )
        rel = AggregateRel(rel, grouping, tuple(measures))
        names = list(agg.key_names)
        for spec in agg.specs:
            if agg.phase == "partial":
                names.extend(f.name for f in spec.partial_fields())
            else:
                names.append(spec.output)

    if pushed.final_project is not None:
        exprs = tuple(
            expression_to_substrait(expr, names, registry)
            for _, expr in pushed.final_project
        )
        rel = ProjectRel(rel, exprs)
        names = [name for name, _ in pushed.final_project]

    if pushed.topn is not None:
        count, sort_keys = pushed.topn
        fields = tuple(
            SortField(names.index(name), descending) for name, descending in sort_keys
        )
        rel = FetchRel(SortRel(rel, fields), 0, count)
    elif pushed.sort is not None:
        fields = tuple(
            SortField(names.index(name), descending)
            for name, descending in pushed.sort
        )
        rel = SortRel(rel, fields)

    if pushed.limit is not None and pushed.topn is None:
        rel = FetchRel(rel, 0, pushed.limit)

    return SubstraitPlan(root=rel, registry=registry, root_names=list(names))


def pushed_plan(handle: OcsTableHandle) -> Tuple[SubstraitPlan, bytes]:
    """``handle``'s pushed plan without its dynamic filter, and its bytes.

    Every split of a branch ships the same bytes, and lowering may have
    built the plan already to fingerprint it for the cache tiers, so the
    plan is built once per branch and query and kept on the handle until
    the query ends.  Each split still pays its own generation charge.
    """
    if handle.built is None:
        pushed = handle.pushed
        if pushed.dynamic_filter is not None:
            pushed = replace(pushed, dynamic_filter=None)
        plan = build_pushdown_plan(handle.descriptor, pushed)
        handle.built = (plan, serialize_plan(plan))
    return handle.built


def spliced_plan(handle: OcsTableHandle) -> Tuple[SubstraitPlan, bytes]:
    """``handle``'s pushed plan with its published dynamic filter, and its
    bytes: built once per branch and query, after the filter is published.

    The page source charges only what the filter adds to
    :func:`pushed_plan` (its relation and expression nodes); the host
    builds the whole plan again, which keeps one translator.
    """
    assert handle.pushed.dynamic_filter is not None
    if handle.spliced is None:
        plan = build_pushdown_plan(handle.descriptor, handle.pushed)
        handle.spliced = (plan, serialize_plan(plan))
    return handle.spliced
