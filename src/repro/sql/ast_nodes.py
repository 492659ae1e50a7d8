"""SQL abstract syntax tree.

Every node renders back to SQL via ``to_sql()``; the parser/printer pair
is a fixpoint (``parse(n.to_sql())`` == ``n``), which the property tests
exercise.  Nodes are frozen dataclasses so they hash and compare
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "children",
    "Node",
    "Expression",
    "Literal",
    "DateLiteral",
    "IntervalLiteral",
    "ColumnRef",
    "Star",
    "UnaryOp",
    "BinaryOp",
    "Between",
    "InList",
    "IsNull",
    "FunctionCall",
    "Cast",
    "ExistsExpr",
    "InSubquery",
    "ScalarSubquery",
    "SelectItem",
    "OrderItem",
    "TableName",
    "JoinClause",
    "CommonTableExpr",
    "SelectStatement",
    "AGGREGATE_FUNCTIONS",
]

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max", "variance", "stddev"})


class Node:
    """Base of every AST dataclass that can hold expressions."""


class Expression(Node):
    """Base class for expression nodes."""

    def to_sql(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_sql()


def children(node: Node) -> List[Node]:
    """Immediate AST children of any node, in field order — expressions,
    clause containers and subquery statements alike (callers filter)."""
    out: List[Node] = []
    for value in vars(node).values():
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(child for child in value if isinstance(child, Node))
    return out


def _paren(expr: Expression) -> str:
    """Parenthesize compound children to keep printing precedence-safe."""
    if isinstance(expr, (Literal, DateLiteral, ColumnRef, Star, FunctionCall, Cast)):
        return expr.to_sql()
    return f"({expr.to_sql()})"


@dataclass(frozen=True)
class Literal(Expression):
    """Integer, float, string, boolean, or NULL literal."""

    value: object  # int | float | str | bool | None

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class DateLiteral(Expression):
    """``DATE 'YYYY-MM-DD'`` — value kept as the ISO string."""

    iso: str

    def to_sql(self) -> str:
        return f"DATE '{self.iso}'"


@dataclass(frozen=True)
class IntervalLiteral(Expression):
    """``INTERVAL 'n' DAY|MONTH|YEAR``."""

    amount: int
    unit: str  # DAY | MONTH | YEAR

    def to_sql(self) -> str:
        return f"INTERVAL '{self.amount}' {self.unit}"


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    #: Optional table qualifier (``lineitem.orderkey``); needed once a
    #: query joins two tables whose schemas share column names.
    qualifier: Optional[str] = None

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` — only valid inside COUNT(*)."""

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-' | 'NOT'
    operand: Expression

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT {_paren(self.operand)}"
        return f"{self.op}{_paren(self.operand)}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # arithmetic, comparison, AND, OR
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"{_paren(self.left)} {self.op} {_paren(self.right)}"


@dataclass(frozen=True)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        return (
            f"{_paren(self.expr)} {neg}BETWEEN {_paren(self.low)} AND {_paren(self.high)}"
        )


@dataclass(frozen=True)
class InList(Expression):
    expr: Expression
    items: Tuple[Expression, ...]
    negated: bool = False

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        inner = ", ".join(i.to_sql() for i in self.items)
        return f"{_paren(self.expr)} {neg}IN ({inner})"


@dataclass(frozen=True)
class IsNull(Expression):
    expr: Expression
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{_paren(self.expr)} {suffix}"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # lowercase
    args: Tuple[Expression, ...]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class Cast(Expression):
    expr: Expression
    type_name: str  # logical type name, e.g. "float64"

    def to_sql(self) -> str:
        return f"CAST({self.expr.to_sql()} AS {self.type_name})"


@dataclass(frozen=True)
class ExistsExpr(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — rewritten to a semi/anti join
    before planning; the analyzer rejects any instance that survives."""

    subquery: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{neg}EXISTS ({self.subquery.to_sql()})"


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — subquery form of :class:`InList`."""

    expr: Expression
    subquery: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{_paren(self.expr)} {neg}IN ({self.subquery.to_sql()})"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a scalar value inside an expression.

    Only uncorrelated single-column subqueries are supported; the
    rewriter materializes the value into a :class:`Literal` before
    analysis (``scalar-materialize``)."""

    subquery: "SelectStatement"

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()})"


# -- statement-level nodes ----------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Expression
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return self.expr.to_sql()


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Expression
    descending: bool = False

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class TableName:
    """Optionally qualified: [catalog.[schema.]]table."""

    table: str
    schema: Optional[str] = None
    catalog: Optional[str] = None

    def to_sql(self) -> str:
        parts = [p for p in (self.catalog, self.schema, self.table) if p]
        return ".".join(parts)


@dataclass(frozen=True)
class JoinClause(Node):
    """``[INNER|LEFT [OUTER]] JOIN table ON condition``.

    ``kind`` is normalized to ``"inner"`` or ``"left"`` by the parser.
    The rewriter additionally produces ``"semi"`` and ``"anti"`` joins
    whose right side is a derived table (``subquery`` is set and
    ``table`` carries its synthetic ``$semiN`` alias).  Semi/anti joins
    have no SQL-surface syntax here, so ``to_sql`` renders them with the
    alias quoted — round-trippable for diagnostics, not re-parseable
    back into a subquery.
    """

    kind: str
    table: TableName
    condition: Expression
    #: Derived-table right side (set by the rewriter for semi/anti
    #: joins; ``table.table`` is then the synthetic alias).
    subquery: Optional["SelectStatement"] = None

    def to_sql(self) -> str:
        keywords = {"left": "LEFT JOIN", "semi": "SEMI JOIN", "anti": "ANTI JOIN"}
        keyword = keywords.get(self.kind, "JOIN")
        if self.subquery is not None:
            right = f"({self.subquery.to_sql()}) AS \"{self.table.to_sql()}\""
        else:
            right = self.table.to_sql()
        return f"{keyword} {right} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class CommonTableExpr(Node):
    """One ``name AS (SELECT ...)`` binding in a WITH clause.

    ``materialized`` is an internal annotation stamped by the rewriter's
    ``cte-materialize`` rule (execute-once, scan the stored result); it
    has no SQL surface and is not rendered by ``to_sql``.
    """

    name: str
    query: "SelectStatement"
    materialized: bool = False

    def to_sql(self) -> str:
        return f"{self.name} AS ({self.query.to_sql()})"


@dataclass(frozen=True)
class SelectStatement(Node):
    select_items: Tuple[SelectItem, ...]
    from_table: TableName
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = field(default_factory=tuple)
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = field(default_factory=tuple)
    limit: Optional[int] = None
    distinct: bool = False
    joins: Tuple[JoinClause, ...] = field(default_factory=tuple)
    ctes: Tuple[CommonTableExpr, ...] = field(default_factory=tuple)

    def to_sql(self) -> str:
        parts = []
        if self.ctes:
            parts.append("WITH " + ", ".join(c.to_sql() for c in self.ctes))
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.select_items))
        parts.append(f"FROM {self.from_table.to_sql()}")
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_sql()
