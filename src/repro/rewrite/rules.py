"""Rewrite rule catalog.

Seeded from DuckDB's subquery decision tree: quantified subqueries
(``EXISTS`` / ``IN``) become semi joins, their negations become anti
joins when NULL semantics allow, uncorrelated scalar subqueries are
materialized into literals, CTEs are inlined or pinned for one-shot
materialization, OR chains collapse into IN lists (feeding the existing
``SInList`` pushdown), and predicates propagate transitively across
equi-join keys.

Every rule is conservative: when a guard cannot prove the rewrite
legal, the statement is left alone and the analyzer reports the
residual construct.  Guards return the veto *reason* so tests (and
anyone debugging a rule) can see exactly which leg of the decision tree
rejected a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arrowsim.schema import Schema
from repro.rewrite.engine import RewriteContext, RewriteRule, derived_schema, table_schema
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    Cast,
    ColumnRef,
    CommonTableExpr,
    DateLiteral,
    ExistsExpr,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IntervalLiteral,
    IsNull,
    JoinClause,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    TableName,
    UnaryOp,
    children,
)

__all__ = [
    "DEFAULT_RULES",
    "CteInline",
    "CteMaterialize",
    "CteOrphanDrop",
    "ExistsToSemiJoin",
    "InSubqueryToSemiJoin",
    "NotExistsToAntiJoin",
    "NotInSubqueryToAntiJoin",
    "OrToInList",
    "ScalarMaterialize",
    "TransitivePredicate",
]

_SUBQUERY_NODES = (ExistsExpr, InSubquery, ScalarSubquery)
_COMPARISONS = frozenset({"=", "<", "<=", ">", ">=", "<>", "!="})


# --------------------------------------------------------------------------
# AST walking helpers
# --------------------------------------------------------------------------


def conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten an AND tree into its top-level conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def combine(parts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild an AND tree (left-deep, matching the parser) from conjuncts."""
    out: Optional[Expression] = None
    for part in parts:
        out = part if out is None else BinaryOp("AND", out, part)
    return out


def disjuncts(expr: Expression) -> List[Expression]:
    if isinstance(expr, BinaryOp) and expr.op.upper() == "OR":
        return disjuncts(expr.left) + disjuncts(expr.right)
    return [expr]


def walk(expr: Expression) -> Iterator[Expression]:
    """Yield ``expr`` and every descendant, not descending into subqueries."""
    yield expr
    for child in children(expr):
        if isinstance(child, Expression):
            yield from walk(child)


def column_refs(expr: Optional[Expression]) -> List[ColumnRef]:
    if expr is None:
        return []
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


def _has_nested_subquery(expr: Optional[Expression]) -> bool:
    if expr is None:
        return False
    return any(isinstance(node, _SUBQUERY_NODES) for node in walk(expr))


def map_expr(expr: Expression, fn) -> Expression:
    """Top-down substitution: ``fn(node)`` returns a replacement or None."""
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, map_expr(expr.operand, fn))
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    if isinstance(expr, Between):
        return Between(
            map_expr(expr.expr, fn),
            map_expr(expr.low, fn),
            map_expr(expr.high, fn),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            map_expr(expr.expr, fn),
            tuple(map_expr(i, fn) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(map_expr(expr.expr, fn), expr.negated)
    if isinstance(expr, Cast):
        return Cast(map_expr(expr.expr, fn), expr.type_name)
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(map_expr(a, fn) for a in expr.args), expr.distinct
        )
    if isinstance(expr, InSubquery):
        return InSubquery(map_expr(expr.expr, fn), expr.subquery, expr.negated)
    return expr


def _map_statement(stmt: SelectStatement, fn) -> SelectStatement:
    """Apply ``map_expr`` to every top-level expression slot of ``stmt``."""
    return replace(
        stmt,
        select_items=tuple(
            SelectItem(map_expr(i.expr, fn), i.alias) for i in stmt.select_items
        ),
        where=map_expr(stmt.where, fn) if stmt.where is not None else None,
        group_by=tuple(map_expr(e, fn) for e in stmt.group_by),
        having=map_expr(stmt.having, fn) if stmt.having is not None else None,
        order_by=tuple(
            OrderItem(map_expr(o.expr, fn), o.descending) for o in stmt.order_by
        ),
    )


def _statement_exprs(stmt: SelectStatement) -> Iterator[Expression]:
    for item in stmt.select_items:
        yield item.expr
    if stmt.where is not None:
        yield stmt.where
    yield from stmt.group_by
    if stmt.having is not None:
        yield stmt.having
    for order in stmt.order_by:
        yield order.expr


def _referenced_names(stmt: SelectStatement, *, skip_cte: Optional[str] = None) -> set:
    """Unqualified table names referenced anywhere in ``stmt``.

    Used for CTE liveness: a CTE whose name never appears here is dead.
    ``skip_cte`` excludes one CTE's own body (self-reference must not
    keep it alive).
    """
    names: set = set()

    def visit(statement: SelectStatement) -> None:
        if statement.from_table.schema is None and statement.from_table.catalog is None:
            names.add(statement.from_table.table)
        for join in statement.joins:
            if join.subquery is not None:
                visit(join.subquery)
            elif join.table.schema is None and join.table.catalog is None:
                names.add(join.table.table)
        for expr in _statement_exprs(statement):
            for node in walk(expr):
                if isinstance(node, _SUBQUERY_NODES):
                    visit(node.subquery)
        for cte in statement.ctes:
            if cte.name != skip_cte:
                visit(cte.query)

    for join in stmt.joins:
        if join.subquery is not None:
            visit(join.subquery)
        elif join.table.schema is None and join.table.catalog is None:
            names.add(join.table.table)
    if stmt.from_table.schema is None and stmt.from_table.catalog is None:
        names.add(stmt.from_table.table)
    for expr in _statement_exprs(stmt):
        for node in walk(expr):
            if isinstance(node, _SUBQUERY_NODES):
                visit(node.subquery)
    for cte in stmt.ctes:
        if cte.name != skip_cte:
            visit(cte.query)
    return names


def _reference_count(stmt: SelectStatement, name: str) -> int:
    """How many FROM/JOIN sites reference CTE ``name``."""
    count = 0

    def visit(statement: SelectStatement) -> None:
        nonlocal count
        if (
            statement.from_table.table == name
            and statement.from_table.schema is None
            and statement.from_table.catalog is None
        ):
            count += 1
        for join in statement.joins:
            if join.subquery is not None:
                visit(join.subquery)
            elif (
                join.table.table == name
                and join.table.schema is None
                and join.table.catalog is None
            ):
                count += 1
        for expr in _statement_exprs(statement):
            for node in walk(expr):
                if isinstance(node, _SUBQUERY_NODES):
                    visit(node.subquery)
        for cte in statement.ctes:
            if cte.name != name:
                visit(cte.query)

    visit(replace(stmt, ctes=tuple(c for c in stmt.ctes if c.name != name)))
    return count


def _outer_tables(
    stmt: SelectStatement, ctx: RewriteContext
) -> Dict[str, Schema]:
    """Visible outer tables: FROM plus catalog-backed join right sides."""
    tables = {stmt.from_table.table: table_schema(stmt.from_table, stmt, ctx)}
    for join in stmt.joins:
        if join.subquery is None:
            tables[join.table.table] = table_schema(join.table, stmt, ctx)
    return tables


def _semi_alias(stmt: SelectStatement) -> str:
    n = sum(1 for j in stmt.joins if j.table.table.startswith("$semi"))
    return f"$semi{n}"


def _qualify_outer(
    ref: ColumnRef, stmt: SelectStatement, ctx: RewriteContext
) -> ColumnRef:
    """Pin an unqualified outer reference to its owning table.

    Semi/anti ON clauses see both the probe scope and the derived
    table's scope; an unqualified probe column whose name also appears
    in the subquery output would be ambiguous there.
    """
    if ref.qualifier is not None:
        return ref
    owners = [
        table
        for table, schema in _outer_tables(stmt, ctx).items()
        if ref.name in schema
    ]
    if len(owners) == 1:
        return ColumnRef(ref.name, qualifier=owners[0])
    return ref


def _same_ref(a: ColumnRef, b: ColumnRef) -> bool:
    """Structural column identity, treating a missing qualifier as a wildcard."""
    if a.name != b.name:
        return False
    if a.qualifier is None or b.qualifier is None:
        return True
    return a.qualifier == b.qualifier


# --------------------------------------------------------------------------
# EXISTS / NOT EXISTS -> semi / anti join
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConjunctSite:
    index: int
    expr: Expression


@dataclass(frozen=True)
class _Decorrelated:
    """Classified subquery WHERE: correlation keys + inner-only residue."""

    pairs: Tuple[Tuple[ColumnRef, ColumnRef], ...]  # (outer ref, inner ref)
    inner_only: Tuple[Expression, ...]


class _SubqueryToJoin(RewriteRule):
    """Shared machinery for the four quantified-subquery rules."""

    negated = False
    join_kind = "semi"

    def _sites(
        self, stmt: SelectStatement, node_type, negated: bool
    ) -> Iterator[_ConjunctSite]:
        for index, conj in enumerate(conjuncts(stmt.where)):
            if isinstance(conj, node_type) and conj.negated == negated:
                yield _ConjunctSite(index, conj)

    def _attach(
        self,
        stmt: SelectStatement,
        site: _ConjunctSite,
        clause: JoinClause,
    ) -> SelectStatement:
        remaining = [
            c for i, c in enumerate(conjuncts(stmt.where)) if i != site.index
        ]
        return replace(
            stmt, where=combine(remaining), joins=stmt.joins + (clause,)
        )


class ExistsToSemiJoin(_SubqueryToJoin):
    """``EXISTS (correlated select)`` becomes a semi join on the
    correlation equalities; inner-only predicates stay in the derived
    table's WHERE so the connector can still push them down."""

    name = "exists-to-semi-join"
    negated = False
    join_kind = "semi"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        return self._sites(stmt, ExistsExpr, self.negated)

    def guard(self, stmt, site, ctx) -> Optional[str]:
        reason, _ = _decorrelate_exists(stmt, site.expr.subquery, ctx)
        return reason

    def apply(
        self, stmt: SelectStatement, site: Any, ctx: RewriteContext
    ) -> Tuple[SelectStatement, str]:
        sub = site.expr.subquery
        _, parts = _decorrelate_exists(stmt, sub, ctx)
        assert parts is not None
        alias = _semi_alias(stmt)
        inner_names: List[str] = []
        for _, inner in parts.pairs:
            if inner.name not in inner_names:
                inner_names.append(inner.name)
        derived = SelectStatement(
            select_items=tuple(SelectItem(ColumnRef(n)) for n in inner_names),
            from_table=sub.from_table,
            where=combine(parts.inner_only),
        )
        condition = combine(
            [
                BinaryOp(
                    "=",
                    _qualify_outer(outer, stmt, ctx),
                    ColumnRef(inner.name, qualifier=alias),
                )
                for outer, inner in parts.pairs
            ]
        )
        assert condition is not None
        clause = JoinClause(self.join_kind, TableName(alias), condition, derived)
        verb = "NOT EXISTS" if self.negated else "EXISTS"
        detail = (
            f"{verb} over {sub.from_table.table} -> {self.join_kind} join "
            f"{alias} on {len(parts.pairs)} key(s)"
        )
        return self._attach(stmt, site, clause), detail


class NotExistsToAntiJoin(ExistsToSemiJoin):
    """``NOT EXISTS`` is NULL-safe as an anti join: a NULL probe key
    matches nothing, and "matches nothing" is exactly what anti keeps."""

    name = "not-exists-to-anti-join"
    negated = True
    join_kind = "anti"


def _decorrelate_exists(
    stmt: SelectStatement, sub: SelectStatement, ctx: RewriteContext
) -> Tuple[Optional[str], Optional[_Decorrelated]]:
    if sub.ctes:
        return "subquery declares CTEs", None
    if sub.joins:
        return "subquery has joins", None
    if sub.group_by or sub.having:
        return "subquery aggregates", None
    if sub.limit is not None:
        return "subquery has LIMIT", None
    if _has_nested_subquery(sub.where):
        return "subquery nests another subquery", None
    inner_schema = table_schema(sub.from_table, stmt, ctx)
    outer = _outer_tables(stmt, ctx)
    pairs: List[Tuple[ColumnRef, ColumnRef]] = []
    inner_only: List[Expression] = []
    for conj in conjuncts(sub.where):
        sides = None
        if (
            isinstance(conj, BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
        ):
            left = _classify(conj.left, sub.from_table, inner_schema, outer)
            right = _classify(conj.right, sub.from_table, inner_schema, outer)
            sides = (left, right)
        if sides == ("outer", "inner"):
            pairs.append((conj.left, conj.right))  # type: ignore[arg-type]
            continue
        if sides == ("inner", "outer"):
            pairs.append((conj.right, conj.left))  # type: ignore[arg-type]
            continue
        refs = column_refs(conj)
        kinds = {_classify(r, sub.from_table, inner_schema, outer) for r in refs}
        if kinds <= {"inner"}:
            inner_only.append(conj)
            continue
        return f"unsupported subquery predicate {conj.to_sql()}", None
    if not pairs:
        return "uncorrelated EXISTS", None
    return None, _Decorrelated(tuple(pairs), tuple(inner_only))


def _classify(
    ref: ColumnRef,
    inner_table: TableName,
    inner_schema: Schema,
    outer: Dict[str, Schema],
) -> Optional[str]:
    """Which scope a subquery column reference binds to: inner beats outer."""
    if ref.qualifier is not None:
        if ref.qualifier == inner_table.table:
            return "inner" if ref.name in inner_schema else None
        schema = outer.get(ref.qualifier)
        if schema is not None and ref.name in schema:
            return "outer"
        return None
    if ref.name in inner_schema:
        return "inner"
    hits = [t for t, schema in outer.items() if ref.name in schema]
    if len(hits) == 1:
        return "outer"
    return None


# --------------------------------------------------------------------------
# IN (subquery) / NOT IN (subquery) -> semi / anti join
# --------------------------------------------------------------------------


class InSubqueryToSemiJoin(_SubqueryToJoin):
    """``col IN (uncorrelated single-column select)`` becomes a semi join
    against the subquery as a derived build side (aggregating subqueries
    like TPC-H Q18's are fine — the build side is just a plan)."""

    name = "in-to-semi-join"
    negated = False
    join_kind = "semi"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        return self._sites(stmt, InSubquery, self.negated)

    def guard(self, stmt, site, ctx) -> Optional[str]:
        node = site.expr
        if not isinstance(node.expr, ColumnRef):
            return "probe expression is not a plain column"
        sub = node.subquery
        reason = _check_in_subquery(sub)
        if reason is not None:
            return reason
        if self.negated:
            return self._null_guard(stmt, node, ctx)
        return None

    def _null_guard(self, stmt, node, ctx) -> Optional[str]:
        """NOT IN is only an anti join when neither side can be NULL: a
        single NULL (either on the probe or in the build set) makes
        ``NOT IN`` yield no rows / UNKNOWN, while anti join keeps rows."""
        sub = replace(node.subquery, order_by=(), distinct=False)
        out_schema = derived_schema(sub, ctx)
        if out_schema.fields[0].nullable:
            return "NOT IN subquery column may produce NULL"
        probe = node.expr
        outer = _outer_tables(stmt, ctx)
        field = None
        if probe.qualifier is not None:
            schema = outer.get(probe.qualifier)
            if schema is not None and probe.name in schema:
                field = schema.field(probe.name)
        else:
            hits = [s for s in outer.values() if probe.name in s]
            if len(hits) == 1:
                field = hits[0].field(probe.name)
        if field is None:
            return f"cannot resolve probe column {probe.to_sql()}"
        if field.nullable:
            return "NOT IN probe column may be NULL"
        return None

    def apply(
        self, stmt: SelectStatement, site: Any, ctx: RewriteContext
    ) -> Tuple[SelectStatement, str]:
        node = site.expr
        sub = replace(node.subquery, order_by=(), distinct=False)
        alias = _semi_alias(stmt)
        out_name = sub.select_items[0].output_name
        probe = _qualify_outer(node.expr, stmt, ctx)
        condition = BinaryOp("=", probe, ColumnRef(out_name, qualifier=alias))
        clause = JoinClause(self.join_kind, TableName(alias), condition, sub)
        verb = "NOT IN" if self.negated else "IN"
        detail = (
            f"{node.expr.to_sql()} {verb} subquery over {sub.from_table.table} "
            f"-> {self.join_kind} join {alias}"
        )
        return self._attach(stmt, site, clause), detail


class NotInSubqueryToAntiJoin(InSubqueryToSemiJoin):
    name = "not-in-to-anti-join"
    negated = True
    join_kind = "anti"


def _check_in_subquery(sub: SelectStatement) -> Optional[str]:
    if sub.ctes:
        return "subquery declares CTEs"
    if sub.joins:
        return "subquery has joins"
    if sub.limit is not None:
        return "subquery has LIMIT"
    if len(sub.select_items) != 1:
        return "subquery must produce exactly one column"
    if isinstance(sub.select_items[0].expr, Star):
        return "subquery selects *"
    for expr in _statement_exprs(sub):
        if _has_nested_subquery(expr):
            return "subquery nests another subquery"
        for ref in column_refs(expr):
            if ref.qualifier is not None and ref.qualifier != sub.from_table.table:
                return f"correlated reference {ref.to_sql()}"
    return None


# --------------------------------------------------------------------------
# Uncorrelated scalar subquery -> literal
# --------------------------------------------------------------------------


class ScalarMaterialize(RewriteRule):
    """``(SELECT agg(...) FROM t ...)`` used as a value: evaluate once,
    substitute the literal.  The engine host supplies the evaluator —
    the run path executes the subquery for real, EXPLAIN substitutes a
    typed placeholder."""

    name = "scalar-materialize"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        seen: List[ScalarSubquery] = []
        for expr in _statement_exprs(stmt):
            for node in walk(expr):
                if isinstance(node, ScalarSubquery) and node not in seen:
                    seen.append(node)
                    yield node

    def guard(self, stmt, node: ScalarSubquery, ctx) -> Optional[str]:
        if ctx.scalar_value is None:
            return "no scalar evaluator available"
        sub = node.subquery
        if sub.ctes:
            return "subquery declares CTEs"
        if sub.joins:
            return "subquery has joins"
        if len(sub.select_items) != 1:
            return "subquery must produce exactly one column"
        if isinstance(sub.select_items[0].expr, Star):
            return "subquery selects *"
        for expr in _statement_exprs(sub):
            if _has_nested_subquery(expr):
                return "subquery nests another subquery"
            for ref in column_refs(expr):
                if ref.qualifier is not None and ref.qualifier != sub.from_table.table:
                    return f"correlated reference {ref.to_sql()}"
        return None

    def apply(self, stmt, node: ScalarSubquery, ctx):
        assert ctx.scalar_value is not None
        literal = ctx.scalar_value(node.subquery)
        rewritten = _map_statement(
            stmt, lambda e: literal if e == node else None
        )
        detail = (
            f"scalar subquery over {node.subquery.from_table.table} "
            f"-> {literal.to_sql()}"
        )
        return rewritten, detail


# --------------------------------------------------------------------------
# CTE handling: drop dead, inline single-use simple, materialize the rest
# --------------------------------------------------------------------------


class CteOrphanDrop(RewriteRule):
    """A CTE nothing references is dead weight; drop it before anything
    tries to materialize it."""

    name = "cte-orphan-drop"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        for cte in stmt.ctes:
            if cte.name not in _referenced_names(stmt, skip_cte=cte.name):
                yield cte

    def apply(self, stmt, cte: CommonTableExpr, ctx):
        remaining = tuple(c for c in stmt.ctes if c.name != cte.name)
        return replace(stmt, ctes=remaining), f"dropped unreferenced CTE {cte.name}"


def _inline_veto(stmt: SelectStatement, cte: CommonTableExpr) -> Optional[str]:
    """Why ``cte`` cannot be folded into the outer statement."""
    body = cte.query
    if body.limit is not None and not body.order_by:
        return "non-deterministic body (LIMIT without ORDER BY)"
    if body.limit is not None:
        return "body has LIMIT"
    count = _reference_count(stmt, cte.name)
    if count == 0:
        return "unreferenced"
    if count > 1:
        return f"referenced {count} times"
    if (
        stmt.from_table.table != cte.name
        or stmt.from_table.schema is not None
        or stmt.from_table.catalog is not None
    ):
        return "single reference is not the outer FROM"
    if stmt.joins:
        return "outer statement has joins"
    if body.ctes or body.joins:
        return "body has CTEs or joins"
    if body.group_by or body.having or body.distinct or body.order_by:
        return "body is not a simple select"
    if body.where is not None and _has_nested_subquery(body.where):
        return "body contains subqueries"
    for item in body.select_items:
        if not isinstance(item.expr, ColumnRef):
            return "body computes expressions"
    return None


class CteInline(RewriteRule):
    """Fold a single-use, simple-select CTE into the outer FROM: column
    aliases are substituted and the body's WHERE conjuncts merge into
    the outer WHERE (where pushdown can still reach them)."""

    name = "cte-inline"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        return iter(stmt.ctes)

    def guard(self, stmt, cte: CommonTableExpr, ctx) -> Optional[str]:
        return _inline_veto(stmt, cte)

    def apply(self, stmt, cte: CommonTableExpr, ctx):
        body = cte.query
        alias_map: Dict[str, str] = {}
        for item in body.select_items:
            assert isinstance(item.expr, ColumnRef)
            alias_map[item.output_name] = item.expr.name

        def substitute(expr: Expression) -> Optional[Expression]:
            if (
                isinstance(expr, ColumnRef)
                and expr.qualifier in (None, cte.name)
                and expr.name in alias_map
            ):
                return ColumnRef(alias_map[expr.name])
            return None

        mapped = _map_statement(stmt, substitute)
        # Substitution may change a column's rendered name; pin each
        # select item's output name so the query's shape is preserved.
        items = []
        for before, after in zip(stmt.select_items, mapped.select_items):
            if after.alias is None and after.output_name != before.output_name:
                after = SelectItem(after.expr, before.output_name)
            items.append(after)
        merged = conjuncts(body.where) + conjuncts(mapped.where)
        rewritten = replace(
            mapped,
            select_items=tuple(items),
            from_table=body.from_table,
            where=combine(merged),
            ctes=tuple(c for c in stmt.ctes if c.name != cte.name),
        )
        detail = f"inlined CTE {cte.name} into FROM {body.from_table.table}"
        return rewritten, detail


class CteMaterialize(RewriteRule):
    """Everything not inlined is pinned for one-shot materialization:
    the engine executes the body once and scans the stored result at
    every reference, so multi-use and non-deterministic CTEs stay
    consistent."""

    name = "cte-materialize"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        for cte in stmt.ctes:
            if not cte.materialized:
                yield cte

    def guard(self, stmt, cte: CommonTableExpr, ctx) -> Optional[str]:
        if _reference_count(stmt, cte.name) == 0:
            return "unreferenced (orphan rule owns it)"
        if _inline_veto(stmt, cte) is None:
            return "inline-eligible"
        # The coordinator executes a materialized body as a standalone
        # query against the catalog; a body that reads another CTE (or
        # itself) has no table to resolve there.
        if _referenced_names(cte.query) & {c.name for c in stmt.ctes}:
            return "body references a CTE"
        return None

    def apply(self, stmt, cte: CommonTableExpr, ctx):
        count = _reference_count(stmt, cte.name)
        why = _inline_veto(stmt, cte) or "?"
        ctes = tuple(
            replace(c, materialized=True) if c.name == cte.name else c
            for c in stmt.ctes
        )
        detail = f"CTE {cte.name} materialized once (referenced {count}x; {why})"
        return replace(stmt, ctes=ctes), detail


# --------------------------------------------------------------------------
# OR chain of equalities -> IN list
# --------------------------------------------------------------------------


class OrToInList(RewriteRule):
    """``c = a OR c = b OR ...`` over one column becomes ``c IN (a, b,
    ...)``, which the OCS pushdown layer already knows how to ship as a
    single ``SInList`` filter."""

    name = "or-to-in-list"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        for index, conj in enumerate(conjuncts(stmt.where)):
            parts = disjuncts(conj)
            if len(parts) < 2:
                continue
            column: Optional[ColumnRef] = None
            values: List[Expression] = []
            for part in parts:
                pair = _equality_with_literal(part)
                if pair is None:
                    break
                ref, value = pair
                if column is None:
                    column = ref
                elif ref.name != column.name or ref.qualifier != column.qualifier:
                    break
                values.append(value)
            else:
                assert column is not None
                yield _ConjunctSite(index, InList(column, tuple(values)))

    def guard(self, stmt, site: _ConjunctSite, ctx) -> Optional[str]:
        assert isinstance(site.expr, InList)
        for value in site.expr.items:
            if isinstance(value, Literal) and value.value is None:
                return "NULL literal in OR chain"
        return None

    def apply(self, stmt, site: _ConjunctSite, ctx):
        parts = conjuncts(stmt.where)
        parts[site.index] = site.expr
        assert isinstance(site.expr, InList)
        detail = (
            f"OR chain of {len(site.expr.items)} equalities on "
            f"{site.expr.expr.to_sql()} -> IN list"
        )
        return replace(stmt, where=combine(parts)), detail


def _equality_with_literal(
    expr: Expression,
) -> Optional[Tuple[ColumnRef, Expression]]:
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    if isinstance(expr.left, ColumnRef) and isinstance(
        expr.right, (Literal, DateLiteral)
    ):
        return expr.left, expr.right
    if isinstance(expr.right, ColumnRef) and isinstance(
        expr.left, (Literal, DateLiteral)
    ):
        return expr.right, expr.left
    return None


# --------------------------------------------------------------------------
# Transitive predicate derivation across equi-join keys
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Derivation:
    target: str  # "outer" | "subquery"
    join_index: int
    derived: Expression


class TransitivePredicate(RewriteRule):
    """``a.k = b.k AND p(a.k)`` implies ``p(b.k)``; deriving the copy
    lets both scans prune independently.

    Directions are gated by join kind: probe→build is sound for inner,
    semi and anti joins (the build side only *selects* probe rows, so
    shrinking it to keys that could ever match changes nothing — for
    anti, dropped build rows only matched probe rows the predicate
    already eliminated).  build→probe is sound only for inner joins.
    LEFT joins are skipped entirely: their probe side survives without
    a match, so no derived filter may touch it, and we stay
    conservative about the build side too.
    """

    name = "transitive-predicate"

    def match(self, stmt: SelectStatement, ctx: RewriteContext):
        where_parts = conjuncts(stmt.where)
        where_sql = {c.to_sql() for c in where_parts}
        for join_index, join in enumerate(stmt.joins):
            if join.kind == "left":
                continue
            pairs = _join_key_pairs(stmt, join, ctx)
            for conj in where_parts:
                pred = _single_column_predicate(conj)
                if pred is None:
                    continue
                ref = pred
                for outer_ref, right_name in pairs:
                    # probe -> build
                    if _same_ref(ref, outer_ref):
                        if join.subquery is not None:
                            base = _underlying_column(join.subquery, right_name)
                            if base is None:
                                continue
                            derived = _retarget(conj, ColumnRef(base))
                            existing = {
                                c.to_sql()
                                for c in conjuncts(join.subquery.where)
                            }
                            if derived.to_sql() in existing:
                                continue
                            yield _Derivation("subquery", join_index, derived)
                        else:
                            derived = _retarget(
                                conj,
                                ColumnRef(right_name, qualifier=join.table.table),
                            )
                            if derived.to_sql() in where_sql:
                                continue
                            yield _Derivation("outer", join_index, derived)
                    # build -> probe (inner catalog joins only)
                    elif (
                        join.kind == "inner"
                        and join.subquery is None
                        and ref.qualifier == join.table.table
                        and ref.name == right_name
                    ):
                        derived = _retarget(conj, outer_ref)
                        if derived.to_sql() in where_sql:
                            continue
                        yield _Derivation("outer", join_index, derived)

    def apply(self, stmt, derivation: _Derivation, ctx):
        join = stmt.joins[derivation.join_index]
        if derivation.target == "subquery":
            assert join.subquery is not None
            sub = join.subquery
            new_sub = replace(
                sub, where=combine(conjuncts(sub.where) + [derivation.derived])
            )
            joins = tuple(
                replace(j, subquery=new_sub) if i == derivation.join_index else j
                for i, j in enumerate(stmt.joins)
            )
            rewritten = replace(stmt, joins=joins)
            where_str = f"into {join.table.table}"
        else:
            rewritten = replace(
                stmt,
                where=combine(conjuncts(stmt.where) + [derivation.derived]),
            )
            where_str = "into WHERE"
        detail = (
            f"derived {derivation.derived.to_sql()} {where_str} across "
            f"join keys of join {derivation.join_index}"
        )
        return rewritten, detail


def _join_key_pairs(
    stmt: SelectStatement, join: JoinClause, ctx: RewriteContext
) -> List[Tuple[ColumnRef, str]]:
    """Equi-key pairs of one join: (outer-side ref, right's own column name)."""
    if join.subquery is not None:
        right_names = {item.output_name for item in join.subquery.select_items}
    else:
        right_names = set(table_schema(join.table, stmt, ctx).names())
    pairs: List[Tuple[ColumnRef, str]] = []
    for conj in conjuncts(join.condition):
        if not (
            isinstance(conj, BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
        ):
            continue
        left, right = conj.left, conj.right
        if _is_right_side(left, join, right_names) and not _is_right_side(
            right, join, right_names
        ):
            left, right = right, left
        if _is_right_side(right, join, right_names) and not _is_right_side(
            left, join, right_names
        ):
            pairs.append((left, right.name))
    return pairs


def _is_right_side(ref: ColumnRef, join: JoinClause, right_names: set) -> bool:
    if ref.qualifier is not None:
        return ref.qualifier == join.table.table
    return ref.name in right_names


def _single_column_predicate(expr: Expression) -> Optional[ColumnRef]:
    """The column a derivable single-column predicate constrains, if any."""
    if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
        if isinstance(expr.left, ColumnRef) and _is_constant(expr.right):
            return expr.left
        if isinstance(expr.right, ColumnRef) and _is_constant(expr.left):
            return expr.right
        return None
    if isinstance(expr, Between):
        if (
            isinstance(expr.expr, ColumnRef)
            and _is_constant(expr.low)
            and _is_constant(expr.high)
        ):
            return expr.expr
        return None
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef) and all(
            _is_constant(i) for i in expr.items
        ):
            return expr.expr
        return None
    return None


def _is_constant(expr: Expression) -> bool:
    if isinstance(expr, (Literal, DateLiteral, IntervalLiteral)):
        return True
    if isinstance(expr, BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    if isinstance(expr, UnaryOp):
        return _is_constant(expr.operand)
    if isinstance(expr, Cast):
        return _is_constant(expr.expr)
    return False


def _retarget(expr: Expression, new_ref: ColumnRef) -> Expression:
    """Copy a single-column predicate onto ``new_ref``."""
    return map_expr(
        expr, lambda e: new_ref if isinstance(e, ColumnRef) else None
    )


def _underlying_column(sub: SelectStatement, output_name: str) -> Optional[str]:
    """Base column behind a subquery output, when it is a plain column.

    Predicates may only ride through the subquery boundary onto plain
    column outputs — a computed or aggregated output has no single base
    column to constrain.
    """
    for item in sub.select_items:
        if item.output_name == output_name:
            if isinstance(item.expr, ColumnRef):
                # An aggregated output (GROUP BY key) is still the base
                # column itself, so keys pass through; aggregate
                # expressions never reach here (not ColumnRef).
                return item.expr.name
            return None
    return None


DEFAULT_RULES: Tuple[RewriteRule, ...] = (
    CteOrphanDrop(),
    CteInline(),
    CteMaterialize(),
    ScalarMaterialize(),
    ExistsToSemiJoin(),
    NotExistsToAntiJoin(),
    InSubqueryToSemiJoin(),
    NotInSubqueryToAntiJoin(),
    OrToInList(),
    TransitivePredicate(),
)
