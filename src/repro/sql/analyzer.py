"""Semantic analysis: AST -> typed expressions + aggregation structure.

The analyzer resolves column references against the table schema,
type-checks every expression, desugars BETWEEN / IN / date-interval
arithmetic, and — for aggregate queries — rewrites aggregate calls into
references to generated aggregate output columns so downstream planning
sees three clean layers:

1. *pre-aggregation* scalar expressions (group keys + aggregate args),
2. the aggregation itself (:class:`repro.exec.AggregateSpec` list),
3. *post-aggregation* scalar expressions (select items, HAVING, ORDER BY).

This mirrors Presto's analyzer/planner split and gives the Presto-OCS
connector exact structures to extract for pushdown.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arrowsim.dtypes import (
    BOOL,
    DATE32,
    DataType,
    FLOAT64,
    INT64,
    STRING,
)
from repro.arrowsim.dtypes import dtype_from_name
from repro.arrowsim.schema import Field, Schema
from repro.errors import AnalysisError, JoinKeyMismatchError
from repro.exec.aggregates import AggregateSpec
from repro.exec.expressions import (
    SCALAR_FUNCTION_NAMES,
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
from repro.sql import ast_nodes as ast

__all__ = ["AnalyzedQuery", "AnalyzedJoin", "Analyzer", "analyze", "AggregateCall"]

_EPOCH = datetime.date(1970, 1, 1)


def _date_to_days(iso: str) -> int:
    try:
        return (datetime.date.fromisoformat(iso) - _EPOCH).days
    except ValueError as exc:
        raise AnalysisError(f"bad date literal {iso!r}: {exc}") from exc


def _shift_months(days: int, months: int) -> int:
    date = _EPOCH + datetime.timedelta(days=days)
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    day = min(
        date.day,
        [31, 29 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 28,
         31, 30, 31, 30, 31, 31, 30, 31, 30, 31][month],
    )
    return (datetime.date(year, month + 1, day) - _EPOCH).days


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate instance: its spec plus the typed argument expression."""

    spec: AggregateSpec
    arg_expr: Optional[Expr]  # None for COUNT(*)


@dataclass
class AnalyzedJoin:
    """One resolved equi-join step of a left-deep join chain.

    The *joined scope* is ``left_schema`` ⊕ renamed right columns: a right
    column whose name collides with a column already in scope appears
    downstream as ``{right_table}${name}``.  ``right_renames`` maps every
    original right column name to its joined-scope name (identity when no
    collision), so the planner can translate residual predicates back into
    the right table's native names for pushdown.

    For chained joins (``FROM a JOIN b ... JOIN c ...``) the "left" side
    of join *i* is the accumulated scope of the FROM table and every
    earlier join, so ``left_keys`` may name renamed columns introduced by
    an earlier join step.

    Semi/anti joins (produced by the rewriter) filter the probe side
    without publishing right columns: their scope is visible only to
    their own ON clause, the joined scope is unchanged, and ``subquery``
    carries the analyzed derived table standing in for ``right_table``
    (a synthetic ``$semiN`` alias).
    """

    kind: str  # "inner" | "left" | "semi" | "anti"
    left_table: ast.TableName
    right_table: ast.TableName
    left_schema: Schema
    right_schema: Schema
    #: Equi-join key column names, positionally paired; ``left_keys`` uses
    #: joined-scope names, ``right_keys`` the right table's original names.
    left_keys: Tuple[str, ...] = ()
    right_keys: Tuple[str, ...] = ()
    right_renames: Dict[str, str] = field(default_factory=dict)
    #: Analyzed derived table for subquery-backed (semi/anti) joins.
    subquery: Optional["AnalyzedQuery"] = None


@dataclass
class AnalyzedQuery:
    """Everything the planner needs, fully resolved and typed."""

    table: ast.TableName
    table_schema: Schema
    #: WHERE predicate over input columns (BOOL), or None.
    where: Optional[Expr]
    #: True when the query aggregates (GROUP BY present or any agg call).
    is_aggregate: bool
    #: (key column name, pre-agg expression) pairs, in GROUP BY order.
    group_keys: List[Tuple[str, Expr]] = field(default_factory=list)
    #: Aggregates in first-appearance order; outputs named ``$aggN``.
    aggregates: List[AggregateCall] = field(default_factory=list)
    #: (output name, post-agg expression) — for non-aggregate queries the
    #: expressions read input columns directly.
    output_items: List[Tuple[str, Expr]] = field(default_factory=list)
    #: HAVING predicate over aggregation outputs (BOOL), or None.
    having: Optional[Expr] = None
    #: (sort column name, descending); names refer to output columns or to
    #: hidden ``$sortN`` columns appended to output_items.
    sort_keys: List[Tuple[str, bool]] = field(default_factory=list)
    #: Hidden column names (sort helpers) to drop after sorting.
    hidden_outputs: List[str] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    #: One entry per JOIN clause, in syntactic order (a left-deep chain);
    #: ``table_schema`` is then the full joined scope.
    joins: List[AnalyzedJoin] = field(default_factory=list)

    @property
    def join(self) -> Optional[AnalyzedJoin]:
        """The sole join of a two-table query (None otherwise)."""
        return self.joins[0] if len(self.joins) == 1 else None

    @property
    def required_columns(self) -> List[str]:
        """Input table columns the query actually touches (scan pruning)."""
        refs: set[str] = set()
        exprs: List[Expr] = []
        if self.where is not None:
            exprs.append(self.where)
        exprs.extend(expr for _, expr in self.group_keys)
        exprs.extend(c.arg_expr for c in self.aggregates if c.arg_expr is not None)
        if not self.is_aggregate:
            exprs.extend(expr for _, expr in self.output_items)
        for expr in exprs:
            refs |= expr.column_refs()
        for join in self.joins:
            # Every join step reads its key columns on both sides.
            refs |= set(join.left_keys)
            refs |= {join.right_renames[k] for k in join.right_keys}
        # Preserve table column order for determinism.
        return [n for n in self.table_schema.names() if n in refs]


@dataclass(frozen=True)
class _Scope:
    """One table visible in the query's namespace.

    ``renames`` maps the table's original column names to their names in
    the accumulated joined scope (identity for the FROM table and for
    non-colliding joined columns).  Semi/anti join scopes are
    ``visible=False``: only their own ON clause may name them — they
    contribute nothing to the output scope.
    """

    table: str
    schema: Schema
    renames: Dict[str, str]
    visible: bool = True


class Analyzer:
    """Analyzes one SELECT statement against a table schema.

    For join queries ``join_schemas`` supplies one schema per JOIN
    clause (in syntactic order) and ``self.schema`` becomes the full
    joined scope: the FROM table's columns followed by each joined
    table's columns, collision-renamed to ``{table}${column}``.
    """

    def __init__(
        self,
        statement: ast.SelectStatement,
        table_schema: Schema,
        right_schema: Optional[Schema] = None,
        *,
        join_schemas: Optional[Sequence[Optional[Schema]]] = None,
    ) -> None:
        self.statement = statement
        self.schema = table_schema
        self._agg_calls: List[Tuple[ast.FunctionCall, AggregateCall]] = []
        self._key_by_ast: Dict[ast.Expression, Tuple[str, Expr]] = {}
        self._scopes: List[_Scope] = [
            _Scope(
                table=statement.from_table.table,
                schema=table_schema,
                renames={n: n for n in table_schema.names()},
            )
        ]
        self._joins: List[AnalyzedJoin] = []
        if statement.joins:
            if join_schemas is None:
                join_schemas = [right_schema] if right_schema is not None else None
            if join_schemas is None or len(join_schemas) != len(statement.joins):
                raise AnalysisError(
                    "join analysis requires the joined table's schema "
                    f"for each of the {len(statement.joins)} JOIN clause(s)"
                )
            for clause, schema in zip(statement.joins, join_schemas):
                if clause.subquery is not None:
                    self._joins.append(self._build_subquery_join(clause, schema))
                else:
                    if schema is None:
                        raise AnalysisError(
                            f"JOIN {clause.table.table} requires the joined "
                            f"table's schema"
                        )
                    self._joins.append(self._build_join_scope(clause, schema))
        elif right_schema is not None or join_schemas:
            raise AnalysisError("join schema given but the query has no JOIN")

    def _build_subquery_join(
        self, join: ast.JoinClause, base_schema: Optional[Schema]
    ) -> AnalyzedJoin:
        """Analyze a derived-table (semi/anti) join's subquery, then
        extend the scope chain with its *planned* output schema.

        ``base_schema`` is the subquery's FROM-table schema (the caller
        resolves it through the catalog; the subquery has no joins of
        its own by rewrite-rule construction).
        """
        assert join.subquery is not None
        if join.kind not in ("semi", "anti"):
            raise AnalysisError(
                f"derived-table joins must be semi or anti, got {join.kind!r}"
            )
        if base_schema is None:
            raise AnalysisError(
                f"join subquery {join.table.table} requires its FROM "
                f"table's schema"
            )
        sub_analyzed = Analyzer(join.subquery, base_schema).analyze()
        # Planning the subquery yields its exact output schema (names,
        # dtypes, nullability) — the build side the join will see.
        from repro.plan.planner import plan_query

        sub_schema = plan_query(sub_analyzed).output_schema()
        analyzed = self._build_join_scope(join, sub_schema)
        analyzed.subquery = sub_analyzed
        return analyzed

    def _build_join_scope(
        self, join: ast.JoinClause, right_schema: Schema
    ) -> AnalyzedJoin:
        """Extend the accumulated scope by one joined table."""
        if any(scope.table == join.table.table for scope in self._scopes):
            raise AnalysisError(
                f"duplicate table {join.table.table!r} in FROM/JOIN; "
                f"self-joins are not supported"
            )
        left_schema = self.schema
        left_names = set(left_schema.names())
        fields = list(left_schema.fields)
        # Semi/anti joins filter the probe side: their columns exist only
        # for the ON clause, never in the downstream scope.
        filtering = join.kind in ("semi", "anti")
        renames: Dict[str, str] = {}
        for f in right_schema:
            name = f.name
            if name in left_names:
                name = f"{join.table.table}${name}"
                if name in left_names:
                    raise AnalysisError(
                        f"cannot disambiguate column {f.name!r} of joined "
                        f"table {join.table.table!r}"
                    )
            renames[f.name] = name
            if not filtering:
                # A probe-preserving LEFT join makes every right column
                # nullable.
                nullable = f.nullable or join.kind == "left"
                fields.append(Field(name, f.dtype, nullable))
        if not filtering:
            self.schema = Schema(fields)
        self._scopes.append(
            _Scope(
                table=join.table.table,
                schema=right_schema,
                renames=renames,
                visible=not filtering,
            )
        )
        return AnalyzedJoin(
            kind=join.kind,
            left_table=self.statement.from_table,
            right_table=join.table,
            left_schema=left_schema,
            right_schema=right_schema,
            right_renames=renames,
        )

    def _analyze_join_condition(self, index: int) -> None:
        """Resolve join ``index``'s ON into paired equi-join key columns.

        Works on the AST (not resolved expressions) so a key-type
        mismatch surfaces as :class:`JoinKeyMismatchError` rather than a
        generic comparison-coercion failure.  The condition may only
        reference the newly joined table and tables already in scope
        (the FROM table plus earlier joins).
        """
        join = self._joins[index]
        conjuncts: List[ast.Expression] = []
        stack = [self.statement.joins[index].condition]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.BinaryOp) and node.op.upper() == "AND":
                stack.extend((node.right, node.left))
            else:
                conjuncts.append(node)
        # Scopes visible to this ON clause: the FROM table plus the
        # *visible* scopes of joins 0..index-1 (earlier semi/anti scopes
        # are private to their own ON), plus this join's own scope.
        visible = [s for s in self._scopes[: index + 1] if s.visible]
        visible.append(self._scopes[index + 1])
        right_scope = visible[-1]
        left_keys: List[str] = []
        right_keys: List[str] = []
        for term in conjuncts:
            if not (
                isinstance(term, ast.BinaryOp)
                and term.op == "="
                and isinstance(term.left, ast.ColumnRef)
                and isinstance(term.right, ast.ColumnRef)
            ):
                raise AnalysisError(
                    f"JOIN ON supports only equi-join conjuncts "
                    f"(column = column), got {term.to_sql()}"
                )
            sides: Dict[str, str] = {}
            for ref in (term.left, term.right):
                name = self._scope_name(ref, scopes=visible)
                is_right = name in set(right_scope.renames.values())
                sides["right" if is_right else "left"] = name
            if len(sides) != 2:
                raise AnalysisError(
                    "each JOIN ON conjunct must compare a left-table column "
                    "with a right-table column"
                )
            left_dtype = join.left_schema.field(sides["left"]).dtype
            joined_to_right = {v: k for k, v in right_scope.renames.items()}
            right_original = joined_to_right[sides["right"]]
            right_dtype = join.right_schema.field(right_original).dtype
            if left_dtype is not right_dtype:
                raise JoinKeyMismatchError(
                    f"join key types differ: {sides['left']} is {left_dtype}, "
                    f"{right_original} is {right_dtype}"
                )
            left_keys.append(sides["left"])
            right_keys.append(right_original)
        if not left_keys:
            raise AnalysisError("JOIN ON must name at least one key pair")
        join.left_keys = tuple(left_keys)
        join.right_keys = tuple(right_keys)

    # -- public ----------------------------------------------------------------

    def analyze(self) -> AnalyzedQuery:
        stmt = self.statement
        if stmt.ctes:
            raise AnalysisError(
                "WITH/CTE bindings must be inlined or materialized by the "
                "rewriter before analysis"
            )
        for index in range(len(self._joins)):
            self._analyze_join_condition(index)
        where = None
        if stmt.where is not None:
            where = self._resolve_scalar(stmt.where, allow_aggregates=False)
            if where.dtype is not BOOL:
                raise AnalysisError(
                    f"WHERE must be boolean, got {where.dtype}"
                )

        is_aggregate = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr) for item in stmt.select_items
        ) or (stmt.having is not None)

        query = AnalyzedQuery(
            table=stmt.from_table,
            table_schema=self.schema,
            where=where,
            is_aggregate=is_aggregate,
            limit=stmt.limit,
            distinct=stmt.distinct,
            joins=list(self._joins),
        )

        if is_aggregate:
            self._analyze_aggregate_query(query)
        else:
            self._analyze_scalar_query(query)
        self._analyze_order_by(query)
        if is_aggregate:
            # ORDER BY / HAVING may have registered additional aggregates.
            query.aggregates = [call for _, call in self._agg_calls]
        return query

    # -- aggregate path -------------------------------------------------------------

    def _analyze_aggregate_query(self, query: AnalyzedQuery) -> None:
        stmt = self.statement
        for i, key_ast in enumerate(stmt.group_by):
            expr = self._resolve_scalar(key_ast, allow_aggregates=False)
            if isinstance(expr, ColumnExpr):
                name = expr.name
            else:
                name = f"$key{i}"
            self._key_by_ast[key_ast] = (name, expr)
            query.group_keys.append((name, expr))

        # Select items: rewrite aggregates/keys into post-agg references.
        names_seen: set[str] = set()
        for item in stmt.select_items:
            post = self._resolve_post_agg(item.expr)
            name = self._unique_name(item.output_name, names_seen)
            query.output_items.append((name, post))

        if stmt.having is not None:
            having = self._resolve_post_agg(stmt.having)
            if having.dtype is not BOOL:
                raise AnalysisError(f"HAVING must be boolean, got {having.dtype}")
            query.having = having

        query.aggregates = [call for _, call in self._agg_calls]

        if stmt.distinct:
            raise AnalysisError("SELECT DISTINCT with aggregation is not supported")

    def _resolve_post_agg(self, node: ast.Expression) -> Expr:
        """Resolve an expression in post-aggregation scope.

        Aggregate calls become references to ``$aggN`` columns; GROUP BY
        expressions become references to their key columns; anything else
        must bottom out in keys/aggregates, not raw input columns.
        """
        if node in self._key_by_ast:
            name, expr = self._key_by_ast[node]
            return ColumnExpr(name, expr.dtype)
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            call = self._register_aggregate(node)
            return ColumnExpr(call.spec.output, call.spec.output_dtype)
        if isinstance(node, ast.ColumnRef):
            # A bare column in an aggregate query must be a group key.
            scoped = self._scope_name(node)
            for name, expr in self._key_by_ast.values():
                if isinstance(expr, ColumnExpr) and expr.name == scoped:
                    return ColumnExpr(name, expr.dtype)
            raise AnalysisError(
                f"column {node.name!r} must appear in GROUP BY or inside an aggregate"
            )
        # Recurse structurally by re-resolving through the scalar machinery
        # with a hook that handles keys/aggregates at any depth.
        return self._resolve(node, scope="post")

    def _register_aggregate(self, node: ast.FunctionCall) -> AggregateCall:
        for seen_ast, call in self._agg_calls:
            if seen_ast == node:
                return call
        if len(node.args) > 1:
            raise AnalysisError(f"{node.name} takes at most one argument")
        arg_expr: Optional[Expr] = None
        input_dtype: Optional[DataType] = None
        if node.args and not isinstance(node.args[0], ast.Star):
            arg_expr = self._resolve_scalar(node.args[0], allow_aggregates=False)
            input_dtype = arg_expr.dtype
            if node.name in ("sum", "avg", "variance", "stddev") and not arg_expr.dtype.is_numeric:
                raise AnalysisError(
                    f"{node.name} requires a numeric argument, got {arg_expr.dtype}"
                )
        elif node.name != "count":
            raise AnalysisError(f"{node.name}(*) is not defined")
        index = len(self._agg_calls)
        spec = AggregateSpec(
            func=node.name,
            arg=f"$agg{index}_arg" if arg_expr is not None else None,
            output=f"$agg{index}",
            input_dtype=input_dtype,
            distinct=node.distinct,
        )
        call = AggregateCall(spec=spec, arg_expr=arg_expr)
        self._agg_calls.append((node, call))
        return call

    # -- non-aggregate path ---------------------------------------------------------

    def _analyze_scalar_query(self, query: AnalyzedQuery) -> None:
        names_seen: set[str] = set()
        for item in self.statement.select_items:
            if isinstance(item.expr, ast.Star):
                for f in self.schema:
                    name = self._unique_name(f.name, names_seen)
                    query.output_items.append((name, ColumnExpr(f.name, f.dtype)))
                continue
            expr = self._resolve_scalar(item.expr, allow_aggregates=False)
            name = self._unique_name(item.output_name, names_seen)
            query.output_items.append((name, expr))

    # -- ORDER BY (both paths) ----------------------------------------------------------

    def _analyze_order_by(self, query: AnalyzedQuery) -> None:
        stmt = self.statement
        output_types = {name: expr.dtype for name, expr in query.output_items}
        alias_exprs = dict(query.output_items)
        for i, order in enumerate(stmt.order_by):
            node = order.expr
            # 1. Bare identifier matching an output column/alias.
            if isinstance(node, ast.ColumnRef) and node.name in output_types:
                query.sort_keys.append((node.name, order.descending))
                continue
            # 2. Otherwise: resolve in the appropriate scope and add a
            #    hidden sort column.
            if query.is_aggregate:
                expr = self._resolve_post_agg(node)
            else:
                expr = self._resolve_scalar(node, allow_aggregates=False)
            # Reuse an existing output if it is the same expression.
            reused = None
            for name, out_expr in alias_exprs.items():
                if out_expr == expr:
                    reused = name
                    break
            if reused is not None:
                query.sort_keys.append((reused, order.descending))
                continue
            hidden = f"$sort{i}"
            query.output_items.append((hidden, expr))
            query.hidden_outputs.append(hidden)
            query.sort_keys.append((hidden, order.descending))

    # -- expression resolution core -------------------------------------------------------

    def _resolve_scalar(self, node: ast.Expression, allow_aggregates: bool) -> Expr:
        if not allow_aggregates and self._contains_aggregate(node):
            raise AnalysisError(
                f"aggregate not allowed in this context: {node.to_sql()}"
            )
        return self._resolve(node, scope="input")

    def _resolve(self, node: ast.Expression, scope: str) -> Expr:
        if scope == "post":
            if node in self._key_by_ast:
                name, expr = self._key_by_ast[node]
                return ColumnExpr(name, expr.dtype)
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                call = self._register_aggregate(node)
                return ColumnExpr(call.spec.output, call.spec.output_dtype)

        if isinstance(node, ast.Literal):
            return self._literal(node.value)
        if isinstance(node, ast.DateLiteral):
            return LiteralExpr(_date_to_days(node.iso), DATE32)
        if isinstance(node, ast.IntervalLiteral):
            raise AnalysisError("INTERVAL literal only valid in date arithmetic")
        if isinstance(node, ast.ColumnRef):
            if scope == "post":
                return self._resolve_post_agg(node)
            name = self._scope_name(node)
            f = self.schema.field(name)
            return ColumnExpr(f.name, f.dtype)
        if isinstance(node, ast.Star):
            raise AnalysisError("* only valid in COUNT(*) or top-level SELECT")
        if isinstance(node, ast.UnaryOp):
            if node.op.upper() == "NOT":
                operand = self._resolve(node.operand, scope)
                if operand.dtype is not BOOL:
                    raise AnalysisError(f"NOT requires boolean, got {operand.dtype}")
                return NotExpr(operand)
            operand = self._resolve(node.operand, scope)
            if not operand.dtype.is_numeric:
                raise AnalysisError(f"unary minus requires numeric, got {operand.dtype}")
            return NegExpr(operand, operand.dtype)
        if isinstance(node, ast.BinaryOp):
            return self._binary(node, scope)
        if isinstance(node, ast.Between):
            operand = self._resolve(node.expr, scope)
            low = self._coerce_pair(operand, self._resolve(node.low, scope))[1]
            high = self._coerce_pair(operand, self._resolve(node.high, scope))[1]
            between = AndExpr(
                (CompareExpr(">=", operand, low), CompareExpr("<=", operand, high))
            )
            return NotExpr(between) if node.negated else between
        if isinstance(node, ast.InList):
            operand = self._resolve(node.expr, scope)
            values = []
            for item in node.items:
                resolved = self._resolve(item, scope)
                if isinstance(resolved, NegExpr) and isinstance(
                    resolved.operand, LiteralExpr
                ):
                    # ``-7`` parses as negation applied to the literal 7.
                    value = resolved.operand.value
                    resolved = LiteralExpr(None if value is None else -value, resolved.dtype)
                if not isinstance(resolved, LiteralExpr):
                    raise AnalysisError("IN list items must be literals")
                values.append(resolved.value)
            return InExpr(operand, tuple(values), negated=node.negated)
        if isinstance(node, ast.IsNull):
            return IsNullExpr(self._resolve(node.expr, scope), negated=node.negated)
        if isinstance(node, ast.Cast):
            operand = self._resolve(node.expr, scope)
            return CastExpr(operand, dtype_from_name(node.type_name))
        if isinstance(node, ast.FunctionCall):
            if node.is_aggregate:
                raise AnalysisError(
                    f"aggregate {node.name} not allowed in this context"
                )
            if node.name in SCALAR_FUNCTION_NAMES:
                if len(node.args) != 1:
                    raise AnalysisError(f"{node.name} takes exactly one argument")
                operand = self._resolve(node.args[0], scope)
                if not operand.dtype.is_numeric:
                    raise AnalysisError(
                        f"{node.name} requires a numeric argument, got {operand.dtype}"
                    )
                return ScalarFuncExpr(
                    node.name, operand, scalar_function_dtype(node.name, operand.dtype)
                )
            raise AnalysisError(f"unknown function {node.name!r}")
        if isinstance(node, (ast.ExistsExpr, ast.InSubquery, ast.ScalarSubquery)):
            raise AnalysisError(
                f"subquery expression was not rewritten to a join or "
                f"literal (rewrite guard vetoed it, or the rewriter is "
                f"disabled): {node.to_sql()}"
            )
        raise AnalysisError(f"cannot analyze expression {node!r}")

    def _binary(self, node: ast.BinaryOp, scope: str) -> Expr:
        op = node.op.upper()
        if op in ("AND", "OR"):
            left = self._resolve(node.left, scope)
            right = self._resolve(node.right, scope)
            for side in (left, right):
                if side.dtype is not BOOL:
                    raise AnalysisError(f"{op} requires booleans, got {side.dtype}")
            cls = AndExpr if op == "AND" else OrExpr
            # Flatten nested conjunctions for cleaner pushdown extraction.
            operands: List[Expr] = []
            for side in (left, right):
                if isinstance(side, cls):
                    operands.extend(side.operands)
                else:
                    operands.append(side)
            return cls(tuple(operands))

        # Date +/- interval.
        if op in ("+", "-") and isinstance(node.right, ast.IntervalLiteral):
            left = self._resolve(node.left, scope)
            if left.dtype is not DATE32:
                raise AnalysisError("INTERVAL arithmetic requires a date operand")
            interval = node.right
            sign = 1 if op == "+" else -1
            if interval.unit == "DAY":
                return ArithExpr(
                    op, left, LiteralExpr(interval.amount, INT64), DATE32
                )
            # MONTH/YEAR need calendar math: only on constant dates.
            if isinstance(left, LiteralExpr):
                months = interval.amount * (12 if interval.unit == "YEAR" else 1)
                return LiteralExpr(
                    _shift_months(int(left.value), sign * months), DATE32
                )
            raise AnalysisError(
                f"INTERVAL {interval.unit} arithmetic requires a constant date"
            )

        left = self._resolve(node.left, scope)
        right = self._resolve(node.right, scope)

        if op in ("=", "<>", "<", "<=", ">", ">="):
            left, right = self._coerce_pair(left, right)
            return CompareExpr(op, left, right)

        if op in ("+", "-", "*", "/", "%"):
            dtype = arithmetic_result_type(op, left.dtype, right.dtype)
            return ArithExpr(op, left, right, dtype)

        raise AnalysisError(f"unknown binary operator {op!r}")

    # -- helpers -----------------------------------------------------------------------

    def _scope_name(
        self, node: ast.ColumnRef, scopes: Optional[List[_Scope]] = None
    ) -> str:
        """Resolve a (possibly qualified) column ref to its scope name.

        In a join scope, unqualified names present in more than one table
        are ambiguous; a qualifier selects the table, and the name
        translates through that table's collision renames.  ``scopes``
        restricts visibility (used while resolving ON conditions, which
        cannot see tables joined later in the chain).
        """
        if scopes is None:
            scopes = [s for s in self._scopes if s.visible]
        if len(scopes) == 1:
            if node.qualifier and node.qualifier != self.statement.from_table.table:
                raise AnalysisError(
                    f"unknown table qualifier {node.qualifier!r} "
                    f"(FROM {self.statement.from_table.table})"
                )
            if node.name not in self.schema:
                raise AnalysisError(
                    f"unknown column {node.name!r}; table has {self.schema.names()}"
                )
            return node.name
        table_names = [scope.table for scope in scopes]
        if node.qualifier:
            for scope in scopes:
                if scope.table == node.qualifier:
                    if node.name not in scope.schema:
                        raise AnalysisError(
                            f"table {scope.table!r} has no column {node.name!r}"
                        )
                    return scope.renames[node.name]
            raise AnalysisError(
                f"unknown table qualifier {node.qualifier!r} "
                f"(expected one of {table_names})"
            )
        matches = [scope for scope in scopes if node.name in scope.schema]
        if len(matches) > 1:
            owners = " or ".join(repr(scope.table) for scope in matches)
            raise AnalysisError(
                f"column {node.name!r} is ambiguous; qualify it with {owners}"
            )
        if matches:
            return matches[0].renames[node.name]
        raise AnalysisError(
            f"unknown column {node.name!r}; joined scope has "
            f"{[f.name for scope in scopes for f in scope.schema]}"
        )

    @staticmethod
    def _literal(value: object) -> LiteralExpr:
        if value is None:
            return LiteralExpr(None, INT64)
        if isinstance(value, bool):
            return LiteralExpr(value, BOOL)
        if isinstance(value, int):
            return LiteralExpr(value, INT64)
        if isinstance(value, float):
            return LiteralExpr(value, FLOAT64)
        if isinstance(value, str):
            return LiteralExpr(value, STRING)
        raise AnalysisError(f"unsupported literal {value!r}")

    def _coerce_pair(self, left: Expr, right: Expr) -> Tuple[Expr, Expr]:
        """Make two comparison operands type-compatible."""
        lt, rt = left.dtype, right.dtype
        if lt is rt:
            return left, right
        # NULL literal adopts the other side's type.
        if isinstance(left, LiteralExpr) and left.value is None:
            return LiteralExpr(None, rt), right
        if isinstance(right, LiteralExpr) and right.value is None:
            return left, LiteralExpr(None, lt)
        if lt.is_numeric and rt.is_numeric:
            return left, right  # numpy broadcasting handles mixed numerics
        if {lt.name, rt.name} == {"date32", "string"}:
            # Allow comparing a date column with an ISO string literal.
            if isinstance(right, LiteralExpr) and rt is STRING:
                return left, LiteralExpr(_date_to_days(str(right.value)), DATE32)
            if isinstance(left, LiteralExpr) and lt is STRING:
                return LiteralExpr(_date_to_days(str(left.value)), DATE32), right
        if lt is DATE32 and rt.name in ("int32", "int64"):
            return left, right
        if rt is DATE32 and lt.name in ("int32", "int64"):
            return left, right
        raise AnalysisError(f"cannot compare {lt} with {rt}")

    @staticmethod
    def _contains_aggregate(node: ast.Expression) -> bool:
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            return True
        children: List[ast.Expression] = []
        if isinstance(node, ast.UnaryOp):
            children = [node.operand]
        elif isinstance(node, ast.BinaryOp):
            children = [node.left, node.right]
        elif isinstance(node, ast.Between):
            children = [node.expr, node.low, node.high]
        elif isinstance(node, ast.InList):
            children = [node.expr, *node.items]
        elif isinstance(node, ast.IsNull):
            children = [node.expr]
        elif isinstance(node, ast.Cast):
            children = [node.expr]
        elif isinstance(node, ast.FunctionCall):
            children = list(node.args)
        elif isinstance(node, ast.InSubquery):
            # The subquery body has its own scope; only the probe
            # expression lives in this one.
            children = [node.expr]
        return any(Analyzer._contains_aggregate(c) for c in children)

    @staticmethod
    def _unique_name(base: str, seen: set[str]) -> str:
        name = base
        counter = 1
        while name in seen:
            name = f"{base}_{counter}"
            counter += 1
        seen.add(name)
        return name


def analyze(
    statement: ast.SelectStatement,
    table_schema: Schema,
    right_schema: Optional[Schema] = None,
    *,
    join_schemas: Optional[Sequence[Schema]] = None,
) -> AnalyzedQuery:
    """Analyze ``statement`` against ``table_schema`` (+ join schemas).

    ``right_schema`` is the single-join shorthand; chained joins pass
    one schema per JOIN clause via ``join_schemas``.
    """
    return Analyzer(
        statement, table_schema, right_schema, join_schemas=join_schemas
    ).analyze()
