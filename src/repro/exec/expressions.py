"""Typed scalar expressions with vectorized numpy evaluation.

This IR sits between the SQL analyzer and everything downstream: the
logical plan embeds these nodes, both engines evaluate them page-at-a-time,
and the Presto-OCS connector translates them into Substrait expressions.

NULL semantics: evaluation returns a :class:`ColumnArray` whose validity
mask is the AND of operand validities (SQL's null-propagation); filter
operators then treat NULL predicates as not-passing, matching SQL's
three-valued logic at the WHERE boundary.  Integer division by zero
yields NULL rather than raising, so adversarial inputs cannot crash a
storage node mid-plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.dtypes import BOOL, DATE32, DataType, FLOAT64, INT64, STRING
from repro.arrowsim.record_batch import RecordBatch
from repro.errors import ExpressionError

__all__ = [
    "Expr",
    "SCALAR_FUNCTION_NAMES",
    "ScalarFuncExpr",
    "scalar_function_dtype",
    "ColumnExpr",
    "LiteralExpr",
    "ArithExpr",
    "NegExpr",
    "CompareExpr",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "InExpr",
    "IsNullExpr",
    "CastExpr",
    "arithmetic_result_type",
    "positive_zero",
]

_NUMERIC_RANK = {"int32": 0, "int64": 1, "float32": 2, "float64": 3}


def arithmetic_result_type(op: str, left: DataType, right: DataType) -> DataType:
    """Result type of ``left op right`` following Presto-style promotion."""
    if left is DATE32 and right.name in ("int32", "int64") and op in ("+", "-"):
        return DATE32
    if left.name not in _NUMERIC_RANK or right.name not in _NUMERIC_RANK:
        raise ExpressionError(
            f"arithmetic {op!r} not defined for {left} and {right}"
        )
    from repro.arrowsim.dtypes import FLOAT32, INT32

    winner = max(left.name, right.name, key=lambda n: _NUMERIC_RANK[n])
    return {"int32": INT32, "int64": INT64, "float32": FLOAT32, "float64": FLOAT64}[winner]


def positive_zero(values: np.ndarray, dtype: "np.dtype | type" = np.float64) -> np.ndarray:
    """A ``dtype`` copy of float ``values`` with ``-0.0`` made ``+0.0``.

    SQL ``=`` (:class:`CompareExpr`, IEEE ``==``) holds the two zeros
    equal.  Every path that keys rows by a float's bits — join codes,
    exchange hashes, group and DISTINCT codes — goes through this first,
    so none of them disagrees with ``=``.
    """
    out = np.array(values, dtype=dtype)
    out[out == 0.0] = 0.0  # simlint: ignore[float-eq]
    return out


class Expr:
    """Base class: typed, hashable, vectorized-evaluable."""

    dtype: DataType

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def evaluate(self, batch: RecordBatch) -> ColumnArray:  # pragma: no cover
        raise NotImplementedError

    # -- analysis helpers ----------------------------------------------------

    def node_count(self) -> int:
        """Number of nodes in this subtree (drives per-row CPU cost)."""
        return 1 + sum(c.node_count() for c in self.children())

    def column_refs(self) -> set[str]:
        refs: set[str] = set()
        for node in self.walk():
            if isinstance(node, ColumnExpr):
                refs.add(node.name)
        return refs

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return repr(self)


def _combine_validity(columns: Sequence[ColumnArray]) -> Optional[np.ndarray]:
    masks = [c.validity for c in columns if c.validity is not None]
    if not masks:
        return None
    out = masks[0].copy()
    for mask in masks[1:]:
        out &= mask
    return out


@dataclass(frozen=True)
class ColumnExpr(Expr):
    """Reference to an input column by name."""

    name: str
    dtype: DataType

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        return batch.column(self.name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LiteralExpr(Expr):
    """A constant broadcast to the page length."""

    value: object
    dtype: DataType

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        n = batch.num_rows
        if self.value is None:
            # Strings fill with "" so comparisons never meet a None.
            values = (
                np.full(n, "", dtype=object) if self.dtype is STRING
                else self.dtype.empty_array(n)
            )
            return ColumnArray(self.dtype, values, np.zeros(n, dtype=bool))
        if self.dtype is STRING:
            values = np.full(n, str(self.value), dtype=object)
        else:
            values = np.full(n, self.value, dtype=self.dtype.numpy_dtype)
        return ColumnArray(self.dtype, values)

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ArithExpr(Expr):
    """Binary arithmetic: + - * / %."""

    op: str
    left: Expr
    right: Expr
    dtype: DataType

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        lcol = self.left.evaluate(batch)
        rcol = self.right.evaluate(batch)
        validity = _combine_validity([lcol, rcol])
        lv, rv = lcol.values, rcol.values
        target = self.dtype.numpy_dtype
        integral = self.dtype.is_integer
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.op == "+":
                values = lv.astype(target) + rv.astype(target)
            elif self.op == "-":
                values = lv.astype(target) - rv.astype(target)
            elif self.op == "*":
                values = lv.astype(target) * rv.astype(target)
            elif self.op == "/":
                if integral:
                    zero = rv == 0
                    safe = np.where(zero, 1, rv).astype(target)
                    # Presto truncates integer division toward zero.  Stay in
                    # integer arithmetic: routing through float64 (lv / safe)
                    # loses precision for |values| > 2**53.
                    lt = lv.astype(target)
                    quot = np.floor_divide(lt, safe)
                    rem = lt - quot * safe
                    values = quot + ((rem != 0) & ((lt < 0) != (safe < 0)))
                    if zero.any():
                        extra = ~zero
                        validity = extra if validity is None else (validity & extra)
                else:
                    values = lv.astype(target) / rv.astype(target)
            elif self.op == "%":
                zero = rv == 0
                safe = np.where(zero, 1, rv)
                # SQL/Presto mod takes the dividend's sign (mod(-7, 3) = -1);
                # np.remainder takes the divisor's — np.fmod matches SQL.
                values = np.fmod(lv.astype(target), safe.astype(target))
                if zero.any():
                    extra = ~zero
                    validity = extra if validity is None else (validity & extra)
            else:
                raise ExpressionError(f"unknown arithmetic operator {self.op!r}")
        return ColumnArray(self.dtype, values, validity)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class NegExpr(Expr):
    """Unary minus."""

    operand: Expr
    dtype: DataType

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        col = self.operand.evaluate(batch)
        return ColumnArray(self.dtype, -col.values, col.validity)

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


@dataclass(frozen=True)
class CompareExpr(Expr):
    """Comparison producing BOOL: = <> < <= > >=."""

    op: str
    left: Expr
    right: Expr
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        lcol = self.left.evaluate(batch)
        rcol = self.right.evaluate(batch)
        validity = _combine_validity([lcol, rcol])
        lv, rv = lcol.values, rcol.values
        if lcol.dtype is STRING or rcol.dtype is STRING:
            lv = lv.astype(object)
            rv = rv.astype(object)
        if self.op == "=":
            values = lv == rv
        elif self.op == "<>":
            values = lv != rv
        elif self.op == "<":
            values = lv < rv
        elif self.op == "<=":
            values = lv <= rv
        elif self.op == ">":
            values = lv > rv
        elif self.op == ">=":
            values = lv >= rv
        else:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")
        return ColumnArray(BOOL, np.asarray(values, dtype=bool), validity)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class AndExpr(Expr):
    """N-ary conjunction with SQL 3VL (false dominates null)."""

    operands: Tuple[Expr, ...]
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        # 3VL: FALSE if any operand is definitely false; NULL if no false
        # but some null; else TRUE.
        any_false = np.zeros(batch.num_rows, dtype=bool)
        any_null = np.zeros(batch.num_rows, dtype=bool)
        for op in self.operands:
            col = op.evaluate(batch)
            valid = col.is_valid()
            any_false |= valid & ~col.values.astype(bool)
            any_null |= ~valid
        validity = any_false | ~any_null
        values = ~any_false & ~any_null
        return ColumnArray(BOOL, values, validity)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class OrExpr(Expr):
    """N-ary disjunction with SQL 3VL (true dominates null)."""

    operands: Tuple[Expr, ...]
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        # 3VL: TRUE if any operand is definitely true; NULL if no true but
        # some null; else FALSE.
        any_true = np.zeros(batch.num_rows, dtype=bool)
        any_null = np.zeros(batch.num_rows, dtype=bool)
        for op in self.operands:
            col = op.evaluate(batch)
            valid = col.is_valid()
            any_true |= valid & col.values.astype(bool)
            any_null |= ~valid
        validity = any_true | ~any_null
        return ColumnArray(BOOL, any_true, validity)

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class NotExpr(Expr):
    operand: Expr
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        col = self.operand.evaluate(batch)
        return ColumnArray(BOOL, ~col.values.astype(bool), col.validity)

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


@dataclass(frozen=True)
class InExpr(Expr):
    """Membership against a literal list (vectorized np.isin).

    SQL 3VL: a match is TRUE; otherwise the result is NULL when the
    operand is NULL or the list holds a NULL (``x = NULL`` is unknown),
    else FALSE.  So ``x NOT IN (1, NULL)`` is never TRUE.
    """

    operand: Expr
    values: Tuple[object, ...]
    negated: bool = False
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        col = self.operand.evaluate(batch)
        present = [v for v in self.values if v is not None]
        if col.dtype is STRING:
            member = np.isin(col.values.astype(str), [str(v) for v in present])
        else:
            member = np.isin(col.values, np.asarray(present))
        validity = col.validity
        if len(present) < len(self.values):
            validity = member if validity is None else (validity & member)
        if self.negated:
            member = ~member
        return ColumnArray(BOOL, member, validity)

    def __repr__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand!r} {neg}IN {list(self.values)!r})"


@dataclass(frozen=True)
class IsNullExpr(Expr):
    """NULL test — never returns NULL itself."""

    operand: Expr
    negated: bool = False
    dtype: DataType = BOOL

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        col = self.operand.evaluate(batch)
        is_null = ~col.is_valid()
        return ColumnArray(BOOL, ~is_null if self.negated else is_null)

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"


def _round_half_away_from_zero(values: np.ndarray) -> np.ndarray:
    """Presto ``round``: halves round away from zero (round(2.5) = 3).

    ``np.round`` is half-to-even (banker's rounding), which disagrees on
    every .5 input.  Integer inputs pass through untouched so they never
    take a lossy trip through float64.
    """
    if values.dtype.kind in "iub":
        return values
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        rounded = np.copysign(np.floor(np.abs(v) + 0.5), v)
        # Floats >= 2**52 are already integral, and adding 0.5 there can
        # round *up* in float arithmetic — leave them (and inf/NaN) alone.
        return np.where(np.abs(v) >= 2.0**52, v, rounded)


#: Scalar math functions: name -> (numpy ufunc, preserves-input-dtype).
#: Functions that don't preserve the input dtype return float64.
_SCALAR_FUNCS = {
    "abs": (np.abs, True),
    "sqrt": (np.sqrt, False),
    "floor": (np.floor, False),
    "ceil": (np.ceil, False),
    "round": (_round_half_away_from_zero, True),
    "ln": (np.log, False),
    "exp": (np.exp, False),
}

SCALAR_FUNCTION_NAMES = frozenset(_SCALAR_FUNCS)


def scalar_function_dtype(name: str, operand: DataType) -> DataType:
    """Result type of ``name(operand)``."""
    if name not in _SCALAR_FUNCS:
        raise ExpressionError(f"unknown scalar function {name!r}")
    _, preserves = _SCALAR_FUNCS[name]
    return operand if preserves else FLOAT64


@dataclass(frozen=True)
class ScalarFuncExpr(Expr):
    """Single-argument numeric scalar function (abs, sqrt, floor, ...)."""

    name: str
    operand: Expr
    dtype: DataType

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        func, _ = _SCALAR_FUNCS[self.name]
        col = self.operand.evaluate(batch)
        with np.errstate(invalid="ignore", divide="ignore"):
            values = func(col.values).astype(self.dtype.numpy_dtype)
        return ColumnArray(self.dtype, values, col.validity)

    def __repr__(self) -> str:
        return f"{self.name}({self.operand!r})"


@dataclass(frozen=True)
class CastExpr(Expr):
    operand: Expr
    dtype: DataType

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: RecordBatch) -> ColumnArray:
        col = self.operand.evaluate(batch)
        if self.dtype is col.dtype:
            return col
        if self.dtype is STRING:
            values = np.array([str(v) for v in col.values], dtype=object)
        elif col.dtype is STRING:
            try:
                values = col.values.astype(self.dtype.numpy_dtype)
            except ValueError as exc:
                raise ExpressionError(f"cannot cast strings: {exc}") from exc
        else:
            values = col.values.astype(self.dtype.numpy_dtype)
        return ColumnArray(self.dtype, values, col.validity)

    def __repr__(self) -> str:
        return f"CAST({self.operand!r} AS {self.dtype})"
