"""Plan verifier: schema-propagating type checker + pushdown legality.

Two layers of machine-checked invariants, one per plan representation
above the wire:

* :func:`verify_logical_plan` — walks a logical plan
  (:mod:`repro.plan.nodes`) bottom-up, recomputing every node's output
  schema from first principles and checking dtype agreement through
  casts, function calls, and aggregate measures.  Filters must be
  deterministic (an expression node the verifier does not know is
  rejected, not waved through).
* :func:`verify_pushdown` — checks a :class:`PushedOperators` chain
  against the pushdown-legality rules: grouping keys must be a subset of
  the pushed pipeline's columns, multi-split aggregation must ship
  partial states, and nothing may ride above a partial aggregation.

The Substrait IR has one typed check of its own,
:func:`repro.substrait.validator.validate_plan`, which the OCS frontend
runs on every request.

:func:`verify_optimized_plan` is the equivalence check wired in at the
connector optimizer's exit: pushed operators + residual plan must
type-check, agree with the pre-optimization plan's output schema, and
cover every operator kind the pre-plan contained (nothing silently
vanishes).  All entry points raise
:class:`~repro.errors.VerificationError`.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.engine` (the call sites live there); ``PushedOperators`` and
table handles are consumed duck-typed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.arrowsim.dtypes import BOOL, DataType
from repro.arrowsim.schema import Field, Schema
from repro.errors import ExpressionError, VerificationError
from repro.exchange.filters import BloomProbeExpr
from repro.exec.aggregates import AggregateSpec
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
    ScalarFuncExpr,
    arithmetic_result_type,
    scalar_function_dtype,
)
from repro.plan.nodes import (
    AggregationNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OutputNode,
    PlanNode,
    ProjectNode,
    SortNode,
    TableScanNode,
    TopNNode,
)

__all__ = [
    "check_expression",
    "verify_logical_plan",
    "verify_pushdown",
    "verify_optimized_plan",
    "verify_exchange_boundary",
    "verify_stage_graph",
]


# --------------------------------------------------------------------------
# Expression checking (logical IR)
# --------------------------------------------------------------------------


def check_expression(expr: Expr, schema: Schema) -> DataType:
    """Recompute ``expr``'s dtype over ``schema``; raise on disagreement.

    Every node type this verifier accepts is deterministic, so a
    successful check doubles as the "filters must be deterministic"
    pushdown rule: unknown expression classes are rejected outright.
    """
    if isinstance(expr, ColumnExpr):
        if expr.name not in schema:
            raise VerificationError(
                f"expression references unknown column {expr.name!r} "
                f"(schema: {schema.names()})"
            )
        declared = schema.field(expr.name).dtype
        if expr.dtype is not declared:
            raise VerificationError(
                f"column {expr.name!r} typed {expr.dtype} but schema says {declared}"
            )
        return expr.dtype
    if isinstance(expr, LiteralExpr):
        return expr.dtype
    if isinstance(expr, ArithExpr):
        left = check_expression(expr.left, schema)
        right = check_expression(expr.right, schema)
        try:
            expected = arithmetic_result_type(expr.op, left, right)
        except ExpressionError as exc:
            raise VerificationError(str(exc)) from exc
        if expr.dtype is not expected:
            raise VerificationError(
                f"arithmetic {expr.op!r} over ({left}, {right}) must be "
                f"{expected}, expression claims {expr.dtype}"
            )
        return expected
    if isinstance(expr, NegExpr):
        operand = check_expression(expr.operand, schema)
        if expr.dtype is not operand:
            raise VerificationError(
                f"negation must preserve dtype {operand}, got {expr.dtype}"
            )
        return operand
    if isinstance(expr, CompareExpr):
        check_expression(expr.left, schema)
        check_expression(expr.right, schema)
        if expr.dtype is not BOOL:
            raise VerificationError(f"comparison must be BOOL, got {expr.dtype}")
        return BOOL
    if isinstance(expr, (AndExpr, OrExpr)):
        for operand in expr.operands:
            if check_expression(operand, schema) is not BOOL:
                raise VerificationError(
                    f"boolean connective operand must be BOOL, got {operand!r}"
                )
        if expr.dtype is not BOOL:
            raise VerificationError(f"boolean connective must be BOOL, got {expr.dtype}")
        return BOOL
    if isinstance(expr, NotExpr):
        if check_expression(expr.operand, schema) is not BOOL:
            raise VerificationError(f"NOT operand must be BOOL: {expr.operand!r}")
        return BOOL
    if isinstance(expr, (InExpr, IsNullExpr)):
        check_expression(expr.operand, schema)
        if expr.dtype is not BOOL:
            raise VerificationError(f"{type(expr).__name__} must be BOOL, got {expr.dtype}")
        return BOOL
    if isinstance(expr, ScalarFuncExpr):
        operand = check_expression(expr.operand, schema)
        try:
            expected = scalar_function_dtype(expr.name, operand)
        except ExpressionError as exc:
            raise VerificationError(str(exc)) from exc
        if expr.dtype is not expected:
            raise VerificationError(
                f"{expr.name}({operand}) must be {expected}, "
                f"expression claims {expr.dtype}"
            )
        return expected
    if isinstance(expr, CastExpr):
        check_expression(expr.operand, schema)
        return expr.dtype
    if isinstance(expr, BloomProbeExpr):
        # Deterministic: membership in an immutable build-side bitset.
        check_expression(expr.operand, schema)
        bloom = expr.bloom
        if bloom.num_bits < 8 or bloom.num_bits & (bloom.num_bits - 1):
            raise VerificationError(
                f"bloom num_bits must be a power of two >= 8, got {bloom.num_bits}"
            )
        if len(bloom.bits) * 8 != bloom.num_bits:
            raise VerificationError(
                f"bloom bitset holds {len(bloom.bits) * 8} bits, header says "
                f"{bloom.num_bits}"
            )
        if expr.dtype is not BOOL:
            raise VerificationError(f"bloom probe must be BOOL, got {expr.dtype}")
        return BOOL
    raise VerificationError(
        f"unknown (potentially non-deterministic) expression node "
        f"{type(expr).__name__}"
    )


# --------------------------------------------------------------------------
# Logical plan checking
# --------------------------------------------------------------------------


def _aggregate_output_fields(
    specs: Sequence[AggregateSpec], phase: str
) -> List[Field]:
    fields: List[Field] = []
    for spec in specs:
        if phase == "partial":
            fields.extend(spec.partial_fields())
        else:
            fields.append(
                Field(spec.output, spec.output_dtype, nullable=spec.func != "count")
            )
    return fields


def _check_aggregation(node: AggregationNode, source: Schema) -> Schema:
    if node.phase not in ("single", "partial", "final"):
        raise VerificationError(f"unknown aggregation phase {node.phase!r}")
    fields: List[Field] = []
    for key in node.key_names:
        if key not in source:
            raise VerificationError(
                f"grouping key {key!r} not in input schema {source.names()}"
            )
        fields.append(source.field(key))
    for spec in node.specs:
        if node.phase == "final":
            # Final-phase inputs are the partial state columns, not the
            # original argument.
            for state in spec.partial_fields():
                if state.name not in source:
                    raise VerificationError(
                        f"final aggregation missing partial state column "
                        f"{state.name!r} (input: {source.names()})"
                    )
                declared = source.field(state.name).dtype
                if declared is not state.dtype:
                    raise VerificationError(
                        f"partial state {state.name!r} typed {declared}, "
                        f"expected {state.dtype}"
                    )
        elif spec.arg is not None:
            if spec.arg not in source:
                raise VerificationError(
                    f"aggregate argument {spec.arg!r} not in input schema "
                    f"{source.names()}"
                )
            declared = source.field(spec.arg).dtype
            if spec.input_dtype is not None and declared is not spec.input_dtype:
                raise VerificationError(
                    f"aggregate {spec.func}({spec.arg}) expects "
                    f"{spec.input_dtype}, input column is {declared}"
                )
    fields.extend(_aggregate_output_fields(node.specs, node.phase))
    return Schema(fields)


def verify_logical_plan(plan: PlanNode) -> Schema:
    """Bottom-up schema/type check; returns the verified output schema."""
    if isinstance(plan, TableScanNode):
        if len(set(plan.columns)) != len(plan.columns):
            raise VerificationError(f"duplicate scan columns {plan.columns}")
        for column in plan.columns:
            if column not in plan.table_schema:
                raise VerificationError(
                    f"scan column {column!r} not in table schema "
                    f"{plan.table_schema.names()}"
                )
        return plan.table_schema.select(plan.columns)
    if isinstance(plan, FilterNode):
        source = verify_logical_plan(plan.source)
        if check_expression(plan.predicate, source) is not BOOL:
            raise VerificationError(
                f"filter predicate must be BOOL: {plan.predicate!r}"
            )
        return source
    if isinstance(plan, ProjectNode):
        source = verify_logical_plan(plan.source)
        names = [name for name, _ in plan.projections]
        if len(set(names)) != len(names):
            raise VerificationError(f"duplicate projection names {names}")
        for _, expr in plan.projections:
            check_expression(expr, source)
        return Schema([Field(n, e.dtype) for n, e in plan.projections])
    if isinstance(plan, AggregationNode):
        return _check_aggregation(plan, verify_logical_plan(plan.source))
    if isinstance(plan, (SortNode, TopNNode)):
        source = verify_logical_plan(plan.source)
        for key, _descending in plan.sort_keys:
            if key not in source:
                raise VerificationError(
                    f"sort key {key!r} not in input schema {source.names()}"
                )
        if isinstance(plan, TopNNode) and plan.count < 0:
            raise VerificationError(f"negative top-N count {plan.count}")
        return source
    if isinstance(plan, LimitNode):
        if plan.count < 0:
            raise VerificationError(f"negative limit {plan.count}")
        return verify_logical_plan(plan.source)
    if isinstance(plan, OutputNode):
        source = verify_logical_plan(plan.source)
        for column in plan.column_names:
            if column not in source:
                raise VerificationError(
                    f"output column {column!r} not in input schema {source.names()}"
                )
        return source.select(plan.column_names)
    if isinstance(plan, JoinNode):
        return _check_join(plan)
    raise VerificationError(f"unknown plan node {type(plan).__name__}")


#: Join kinds whose build side may legally publish a dynamic filter back
#: to the probe scan.  Inner and semi joins only *select* probe rows that
#: match a build key, so pre-filtering the probe to candidate keys is
#: sound.  Anti joins keep exactly the NON-matching probe rows — a
#: build-key filter would delete the entire answer; left joins keep
#: non-matching probe rows too.  The coordinator consults this before
#: inserting a dynamic-filter stage, and tests pin it.
DYNAMIC_FILTER_JOIN_KINDS = ("inner", "semi")


def _check_join(plan: JoinNode) -> Schema:
    """Join invariants: paired equi-keys with equal dtypes, and an output
    schema that is exactly left ⊕ (renamed, collision-free) right — or,
    for the filtering kinds (semi/anti), exactly the left schema."""
    left = verify_logical_plan(plan.left)
    right = verify_logical_plan(plan.right)
    if plan.kind not in ("inner", "left", "semi", "anti"):
        raise VerificationError(f"unknown join kind {plan.kind!r}")
    if plan.distribution not in ("auto", "broadcast", "partitioned"):
        raise VerificationError(
            f"unknown join distribution {plan.distribution!r}"
        )
    if not plan.left_keys or len(plan.left_keys) != len(plan.right_keys):
        raise VerificationError(
            f"join must pair equal, non-empty key lists, got "
            f"{plan.left_keys} / {plan.right_keys}"
        )
    for lk, rk in zip(plan.left_keys, plan.right_keys):
        if lk not in left:
            raise VerificationError(
                f"join key {lk!r} not in left input {left.names()}"
            )
        if rk not in right:
            raise VerificationError(
                f"join key {rk!r} not in right input {right.names()}"
            )
        ldt = left.field(lk).dtype
        rdt = right.field(rk).dtype
        if ldt is not rdt:
            raise VerificationError(
                f"join key dtype mismatch: {lk} is {ldt}, {rk} is {rdt}"
            )
    if plan.kind in ("semi", "anti"):
        # Filtering joins pass probe rows through untouched: the output
        # schema must be the left input, bit for bit, and no right
        # column may leak.
        declared = plan.output_schema()
        if not _schemas_agree(left, declared):
            raise VerificationError(
                f"{plan.kind} join must publish its probe schema "
                f"{left.names()}, declared {declared.names()}"
            )
        return left
    fields = list(left.fields)
    seen = set(left.names())
    force_nullable = plan.kind == "left"
    for f in right.fields:
        out_name = plan.right_renames.get(f.name, f.name)
        if out_name in seen:
            raise VerificationError(
                f"join output column {out_name!r} collides across sides "
                f"(right_renames must disambiguate it)"
            )
        seen.add(out_name)
        fields.append(
            Field(out_name, f.dtype, nullable=f.nullable or force_nullable)
        )
    recomputed = Schema(fields)
    declared = plan.output_schema()
    if not _schemas_agree(recomputed, declared):
        raise VerificationError(
            f"join output schema {declared.names()} disagrees with "
            f"left ⊕ renamed right {recomputed.names()}"
        )
    return recomputed


# --------------------------------------------------------------------------
# Pushed-operator legality
# --------------------------------------------------------------------------


def verify_pushdown(pushed: Any, table_schema: Schema, split_count: int = 1) -> Schema:
    """Check a ``PushedOperators`` chain stage by stage.

    Returns the schema OCS will hand back (which must equal the residual
    scan's schema).  ``split_count`` is how many pushdown requests the
    scan fans out into; more than one forces partial aggregation.
    """
    if not pushed.columns:
        raise VerificationError("pushdown must scan at least one column")
    if len(set(pushed.columns)) != len(pushed.columns):
        raise VerificationError(f"duplicate pushed columns {pushed.columns}")
    for column in pushed.columns:
        if column not in table_schema:
            raise VerificationError(
                f"pushed column {column!r} not in table schema "
                f"{table_schema.names()}"
            )
    schema = table_schema.select(pushed.columns)

    if pushed.filter is not None:
        if check_expression(pushed.filter, schema) is not BOOL:
            raise VerificationError(f"pushed filter must be BOOL: {pushed.filter!r}")

    dynamic_filter = getattr(pushed, "dynamic_filter", None)
    if dynamic_filter is not None:
        # Applied directly above the read (before projections rebind names).
        if check_expression(dynamic_filter, schema) is not BOOL:
            raise VerificationError(
                f"pushed dynamic filter must be BOOL: {dynamic_filter!r}"
            )

    if pushed.projections is not None:
        names = [name for name, _ in pushed.projections]
        if len(set(names)) != len(names):
            raise VerificationError(f"duplicate pushed projection names {names}")
        for _, expr in pushed.projections:
            check_expression(expr, schema)
        schema = Schema([Field(n, e.dtype) for n, e in pushed.projections])

    aggregation = pushed.aggregation
    if aggregation is not None:
        if aggregation.phase not in ("single", "partial"):
            raise VerificationError(
                f"pushed aggregation phase must be single/partial, "
                f"got {aggregation.phase!r}"
            )
        if split_count > 1 and aggregation.phase != "partial":
            raise VerificationError(
                f"single-phase aggregation over {split_count} splits is "
                f"unsound: per-split groups need a mergeable partial state"
            )
        fields: List[Field] = []
        for key in aggregation.key_names:
            if key not in schema:
                raise VerificationError(
                    f"pushed grouping key {key!r} is not a pushed scan/"
                    f"projection column ({schema.names()})"
                )
            fields.append(schema.field(key))
        if len(aggregation.arg_expressions) != len(aggregation.specs):
            raise VerificationError(
                "pushed aggregation arg_expressions/specs length mismatch"
            )
        for spec, arg_expr in zip(aggregation.specs, aggregation.arg_expressions):
            if arg_expr is None:
                if spec.arg is not None:
                    raise VerificationError(
                        f"aggregate {spec.func}({spec.arg}) pushed without "
                        f"an argument expression"
                    )
                continue
            dtype = check_expression(arg_expr, schema)
            if spec.input_dtype is not None and dtype is not spec.input_dtype:
                raise VerificationError(
                    f"aggregate {spec.func}({spec.arg}) expects "
                    f"{spec.input_dtype}, pushed argument evaluates to {dtype}"
                )
        fields.extend(_aggregate_output_fields(aggregation.specs, aggregation.phase))
        schema = Schema(fields)
        if aggregation.phase == "partial" and (
            pushed.final_project is not None
            or pushed.topn is not None
            or pushed.sort is not None
            or pushed.limit is not None
        ):
            raise VerificationError(
                "nothing may ride above a partial aggregation (the residual "
                "final aggregation must see the states verbatim)"
            )

    if pushed.final_project is not None:
        if aggregation is None:
            raise VerificationError(
                "final_project requires a pushed aggregation below it"
            )
        for _, expr in pushed.final_project:
            check_expression(expr, schema)
        schema = Schema([Field(n, e.dtype) for n, e in pushed.final_project])

    if pushed.topn is not None:
        count, sort_keys = pushed.topn
        if count < 0:
            raise VerificationError(f"negative pushed top-N count {count}")
        if not sort_keys:
            raise VerificationError("pushed top-N requires sort keys")
        for key, _descending in sort_keys:
            if key not in schema:
                raise VerificationError(
                    f"pushed top-N key {key!r} not in schema {schema.names()}"
                )
    if pushed.sort is not None:
        for key, _descending in pushed.sort:
            if key not in schema:
                raise VerificationError(
                    f"pushed sort key {key!r} not in schema {schema.names()}"
                )
    if pushed.limit is not None and pushed.limit < 0:
        raise VerificationError(f"negative pushed limit {pushed.limit}")
    return schema


# --------------------------------------------------------------------------
# Optimizer-exit equivalence check
# --------------------------------------------------------------------------

_NODE_KIND: Dict[type, str] = {
    FilterNode: "filter",
    ProjectNode: "project",
    AggregationNode: "aggregation",
    TopNNode: "topn",
    SortNode: "sort",
    LimitNode: "limit",
}


def _linearize(plan: PlanNode) -> Tuple[TableScanNode, List[PlanNode]]:
    """(scan leaf, operators above it root-first); rejects non-chains."""
    chain: List[PlanNode] = []
    node = plan
    while True:
        children = node.children()
        if not children:
            break
        if len(children) != 1:
            raise VerificationError(
                f"{type(node).__name__} is not part of a linear scan chain"
            )
        chain.append(node)
        node = children[0]
    if not isinstance(node, TableScanNode):
        raise VerificationError(
            f"plan leaf is {type(node).__name__}, expected TableScanNode"
        )
    return node, chain


def _schemas_agree(a: Schema, b: Schema) -> bool:
    """Name+dtype equality; nullability is advisory and not compared."""
    if a.names() != b.names():
        return False
    return all(fa.dtype is fb.dtype for fa, fb in zip(a, b))


def _expand_pushed(scan: TableScanNode, base_schema: Schema, pushed: Any) -> PlanNode:
    """Re-inflate pushed operators into logical nodes over the base scan."""
    node: PlanNode = TableScanNode(
        table=scan.table, table_schema=base_schema, columns=list(pushed.columns)
    )
    if pushed.filter is not None:
        node = FilterNode(node, pushed.filter)
    if pushed.projections is not None:
        node = ProjectNode(node, list(pushed.projections))
    aggregation = pushed.aggregation
    if aggregation is not None:
        # A fused projection lives in arg_expressions; re-insert it as an
        # explicit projection so the expanded plan mirrors the pre-fusion
        # pipeline (AggregationNode consumes plain argument columns).
        fused = any(
            expr is not None
            and not (isinstance(expr, ColumnExpr) and expr.name == spec.arg)
            for spec, expr in zip(aggregation.specs, aggregation.arg_expressions)
        )
        if fused:
            current = node.output_schema()
            projections: List[Tuple[str, Expr]] = [
                (key, ColumnExpr(key, current.field(key).dtype))
                for key in aggregation.key_names
            ]
            produced = {name for name, _ in projections}
            for spec, expr in zip(aggregation.specs, aggregation.arg_expressions):
                if spec.arg is not None and expr is not None and spec.arg not in produced:
                    projections.append((spec.arg, expr))
                    produced.add(spec.arg)
            node = ProjectNode(node, projections)
        node = AggregationNode(
            node,
            list(aggregation.key_names),
            list(aggregation.specs),
            phase=aggregation.phase,
        )
    if pushed.final_project is not None:
        node = ProjectNode(node, list(pushed.final_project))
    if pushed.topn is not None:
        node = TopNNode(node, pushed.topn[0], list(pushed.topn[1]))
    if pushed.sort is not None:
        node = SortNode(node, list(pushed.sort))
    if pushed.limit is not None:
        node = LimitNode(node, pushed.limit)
    return node


def verify_optimized_plan(
    pre_plan: PlanNode, residual_plan: PlanNode, split_count: int = 1
) -> None:
    """Equivalence check: pushed + residual ≡ the pre-optimization plan.

    Three obligations, each a :class:`VerificationError` on failure:

    1. The pushed operator chain is legal (:func:`verify_pushdown`) and
       produces exactly the residual scan's schema.
    2. The residual plan *and* the expanded plan (pushed operators
       re-inflated over the original scan, residual operators on top)
       type-check and agree with the pre-plan's output schema.
    3. Operator coverage: every operator kind present in the pre-plan
       appears either pushed or residual — nothing silently vanishes.
    """
    pre_output = verify_logical_plan(pre_plan)
    residual_scan, residual_chain = _linearize(residual_plan)
    handle = residual_scan.connector_handle
    if handle is None or getattr(handle, "pushed", None) is None:
        raise VerificationError("residual scan carries no pushed-operator handle")
    pushed = handle.pushed
    base_schema: Schema = handle.descriptor.table_schema

    pushed_schema = verify_pushdown(pushed, base_schema, split_count)
    if not _schemas_agree(pushed_schema, residual_scan.output_schema()):
        raise VerificationError(
            f"pushed pipeline returns {pushed_schema.names()} but the "
            f"residual scan expects {residual_scan.output_schema().names()}"
        )

    residual_output = verify_logical_plan(residual_plan)
    if not _schemas_agree(pre_output, residual_output):
        raise VerificationError(
            f"residual plan output {residual_output.names()} disagrees with "
            f"pre-optimization output {pre_output.names()}"
        )

    pre_scan, pre_chain = _linearize(pre_plan)
    expanded = _expand_pushed(pre_scan, base_schema, pushed)
    for node in reversed(residual_chain):
        expanded = node.with_source(expanded)
    expanded_output = verify_logical_plan(expanded)
    if not _schemas_agree(pre_output, expanded_output):
        raise VerificationError(
            f"expanded (pushed + residual) output {expanded_output.names()} "
            f"disagrees with pre-optimization output {pre_output.names()}"
        )

    pre_kinds = {_NODE_KIND[type(n)] for n in pre_chain if type(n) in _NODE_KIND}
    residual_kinds = {
        _NODE_KIND[type(n)] for n in residual_chain if type(n) in _NODE_KIND
    }
    covered = residual_kinds | set(pushed.operator_names())
    if pushed.aggregation is not None or pushed.final_project is not None:
        # Fused or post-aggregation projections are absorbed rather than
        # listed under their own operator name.
        covered.add("project")
    missing = pre_kinds - covered
    if missing:
        raise VerificationError(
            f"operators {sorted(missing)} from the pre-optimization plan are "
            f"neither pushed nor residual"
        )


# --------------------------------------------------------------------------
# Rewrite equivalence
# --------------------------------------------------------------------------


def _contains_subquery(expr: Any) -> bool:
    """True when an AST expression embeds a subquery node at any depth."""
    import dataclasses

    from repro.sql.ast_nodes import (
        ExistsExpr,
        Expression,
        InSubquery,
        ScalarSubquery,
    )

    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ExistsExpr, InSubquery, ScalarSubquery)):
            return True
        if dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                for child in value if isinstance(value, tuple) else (value,):
                    if isinstance(child, Expression):
                        stack.append(child)
    return False


def verify_rewrite(original: Any, plan: PlanNode) -> Schema:
    """Equivalence obligation for the logical rewriter.

    The rewritten statement's plan must (1) re-type-check bottom-up and
    (2) still produce the output shape the *pre-rewrite* statement
    declared: one column per original select item, in order, under the
    original output names.  Rules may reshape joins, predicates, and
    CTEs at will, but the user-visible result schema is inviolable.

    ``original`` is the parsed pre-rewrite :class:`SelectStatement`;
    ``plan`` is the logical plan built from the rewritten statement.
    Raises :class:`VerificationError` on any mismatch and returns the
    verified output schema.
    """
    from repro.sql.ast_nodes import Star

    out = verify_logical_plan(plan)
    items = list(original.select_items)
    if any(isinstance(item.expr, Star) for item in items):
        # ``SELECT *`` expands against catalog schemas the verifier does
        # not hold; the bottom-up type check above still applies.
        return out
    expected = [item.output_name for item in items]
    names = out.names()
    if len(names) != len(expected):
        raise VerificationError(
            f"rewrite changed the output arity: statement declares "
            f"{len(expected)} column(s) {expected}, plan produces "
            f"{len(names)} {names}"
        )
    for got, want, item in zip(names, expected, items):
        if item.alias is None and _contains_subquery(item.expr):
            # An unaliased select item containing a subquery derives its
            # output name from the subquery's SQL text; the rewriter
            # legitimately renames it when materializing the value.
            continue
        # The analyzer uniquifies duplicate output names with ``_N``.
        if got != want and not got.startswith(f"{want}_"):
            raise VerificationError(
                f"rewrite changed an output column name: statement "
                f"declares {want!r}, plan produces {got!r}"
            )
    return out


# --------------------------------------------------------------------------
# Exchange boundaries
# --------------------------------------------------------------------------


def verify_exchange_boundary(scan: TableScanNode) -> None:
    """The synthetic scan standing in for an exchange must carry no pushdown.

    When the coordinator fragments the portion of a join plan *above* the
    exchange, it substitutes a handle-less synthetic :class:`TableScanNode`
    for the join: the exchange consumes engine pages produced by the join
    tasks, not storage pages, so no operator may ride down through it into
    a connector.  (Partial aggregation *below* the boundary is fine — that
    is the per-task half of a two-phase aggregate, not a pushdown.)
    """
    handle = scan.connector_handle
    if handle is None:
        return
    pushed = getattr(handle, "pushed", None)
    if pushed is not None and pushed.any_pushdown:
        raise VerificationError(
            f"operators {pushed.operator_names()} pushed through an exchange "
            f"boundary: the exchange input is engine pages, not a storage scan"
        )
    raise VerificationError(
        "exchange-boundary scan carries a connector handle; it must stay "
        "synthetic (no connector may bind to exchange output)"
    )


# --------------------------------------------------------------------------
# Stage graphs (DAG typing)
# --------------------------------------------------------------------------


def verify_stage_graph(graph: Any) -> None:
    """Structural + edge-schema checks over a lowered stage graph.

    Rejects, before anything runs:

    * edges naming a producer absent from the graph,
    * cycles (no topological order exists),
    * orphan stages — a non-sink stage nothing consumes would be pure
      wasted work, and a graph with zero sinks has no result,
    * schema-mismatched edges: when a consumer declares the schema it
      expects from a producer (``input_schemas``) and the producer
      declares an ``output_schema``, names and dtypes must agree
      exactly (dtype identity, matching the engine's singleton dtypes).

    Untyped edges (either side ``None``/undeclared) are allowed — some
    payloads are not batch streams (a dynamic-filter handshake, an
    exchange's drained partition list keeps the producer's schema).

    ``cache-union`` stages (the hybrid reassembly of a partially cached
    scan) carry extra rules: at least one input, every input a ``scan``
    stage (the cached-local and pushed-remote branches), and all
    declared input schemas mutually identical — both fractions of one
    scan must emit the same split schema or the union is meaningless.
    """
    stages = {stage.stage_id: stage for stage in graph}
    if not stages:
        raise VerificationError("stage graph is empty")
    for stage in stages.values():
        for dep in stage.inputs:
            if dep not in stages:
                raise VerificationError(
                    f"stage {stage.stage_id!r} reads from unknown stage {dep!r}"
                )
    graph.topological()  # raises PlanError on cycles
    consumed = {dep for stage in stages.values() for dep in stage.inputs}
    sinks = [sid for sid in stages if sid not in consumed]
    if not sinks:
        raise VerificationError("stage graph has no sink stage")
    if len(sinks) > 1:
        raise VerificationError(
            f"stage graph has {len(sinks)} sinks {sorted(sinks)}; orphan "
            f"stages produce work nothing consumes"
        )
    for stage in stages.values():
        for dep, expected in stage.input_schemas.items():
            produced = stages[dep].output_schema
            if expected is None or produced is None:
                continue
            if not _schemas_agree(produced, expected):
                raise VerificationError(
                    f"edge {dep!r} -> {stage.stage_id!r} schema mismatch: "
                    f"producer emits {produced.names()} but consumer "
                    f"expects {expected.names()}"
                )
    for stage in stages.values():
        # Dynamic-filter stages record which join kind they serve; only
        # the selective kinds (inner/semi) may prune the probe scan.
        join_kind = (stage.attributes or {}).get("join_kind")
        if (
            stage.kind == "filter"
            and join_kind is not None
            and join_kind not in DYNAMIC_FILTER_JOIN_KINDS
        ):
            raise VerificationError(
                f"stage {stage.stage_id!r} publishes a dynamic filter for "
                f"a {join_kind!r} join; only {DYNAMIC_FILTER_JOIN_KINDS} "
                f"may prune the probe side"
            )
    for stage in stages.values():
        if stage.kind != "cache-union":
            continue
        if not stage.inputs:
            raise VerificationError(
                f"cache-union stage {stage.stage_id!r} has no inputs; it "
                f"must union at least one scan branch"
            )
        bad = [dep for dep in stage.inputs if stages[dep].kind != "scan"]
        if bad:
            raise VerificationError(
                f"cache-union stage {stage.stage_id!r} unions non-scan "
                f"stages {sorted(bad)}; only the cached-local and "
                f"pushed-remote fractions of one scan may feed it"
            )
        declared = [
            schema
            for schema in (stage.input_schemas.get(dep) for dep in stage.inputs)
            if schema is not None
        ]
        for other in declared[1:]:
            if not _schemas_agree(declared[0], other):
                raise VerificationError(
                    f"cache-union stage {stage.stage_id!r} unions branches "
                    f"with mismatched schemas {declared[0].names()} vs "
                    f"{other.names()}"
                )
