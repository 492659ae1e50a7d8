"""Stdlib ``sqlite3`` as an independent SQL referee for this engine.

:class:`Referee` copies every table of an :class:`~repro.bench.Environment`
into ``sqlite3.connect(":memory:")``.  It reads the *stored Parcel
objects* back, so SQLite sees exactly the bytes the engine scans.
:meth:`Referee.check` then runs a query's SQLite rendering and compares
the engine's result with SQLite's as canonical row multisets: booleans
as 0/1, floats at a relative 1e-9 (the tolerance of
``benchmarks/e2e/oracle.py``).  An ``ORDER BY`` query must also match
SQLite's key sequence; under ``LIMIT`` the rows tied at the cut may be
any of SQLite's rows with that key.

``DIALECT`` is the written table of every difference between the two
SQL dialects the referee has met.  Each is normalised here, excluded
from query generation (with the reason), or a finding about this engine
(fixed, with a regression test).  ``docs/STATIC_ANALYSIS.md`` §4 prints
the same table.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.formats import ParcelReader

__all__ = ["DIALECT", "Difference", "Referee", "sqlite_dialect"]

_RTOL = 1e-9
_ATOL = 1e-12

_SQLITE_TYPES = {
    "bool": "INTEGER",
    "int32": "INTEGER",
    "int64": "INTEGER",
    "date32": "INTEGER",
    "float32": "REAL",
    "float64": "REAL",
    "string": "TEXT",
}


@dataclass(frozen=True)
class Difference:
    """One row of the dialect table."""

    name: str
    #: "normalised", "excluded" or "finding".
    kind: str
    handling: str


DIALECT: Tuple[Difference, ...] = (
    Difference(
        "NULL sort position", "normalised",
        "SQLite sorts NULLs first ascending; this engine sorts them last in "
        "both directions, so the SQLite rendering says NULLS LAST.",
    ),
    Difference(
        "DATE and INTERVAL literals", "normalised",
        "SQLite has no DATE type: dates are stored and rendered as day "
        "numbers since 1970-01-01, constant interval arithmetic folded.",
    ),
    Difference(
        "booleans", "normalised",
        "SQLite returns comparisons as 0/1; BOOL results compare as 0/1.",
    ),
    Difference(
        "stddev / variance", "normalised",
        "SQLite has neither: registered with create_aggregate using the "
        "engine's definition (sample statistics, NULL below two rows).",
    ),
    Difference(
        "int64 overflow", "excluded",
        "SQLite promotes an overflowing integer result to REAL (and sum() "
        "raises); the engine wraps.  The int64-extreme column never feeds "
        "arithmetic or sum/avg; other integers stay far from 2**63.",
    ),
    Difference(
        "float division by zero", "excluded",
        "SQLite returns NULL; the engine follows IEEE (inf/NaN, as Presto "
        "does for DOUBLE).  Float divisors are non-zero literals.",
    ),
    Difference(
        "% on floats", "excluded",
        "SQLite's % casts both operands to INTEGER; the engine takes fmod.  "
        "% is generated on integers only.",
    ),
    Difference(
        "math domain errors", "excluded",
        "sqrt/ln outside their domain are NULL in SQLite and NaN/-inf in "
        "the engine; sqrt is generated over abs(), ln and exp not at all.",
    ),
    Difference(
        "round(x, d) and LIKE", "excluded",
        "outside this engine's surface (round takes one argument; no LIKE).",
    ),
    Difference(
        "WHERE NULL", "excluded",
        "the analyzer types a bare NULL as int64 and rejects it as a "
        "predicate; generated only in the negative mode.",
    ),
    Difference(
        "NOT IN (subquery) over a nullable side", "excluded",
        "the rewrite guard declines the anti join (NULL semantics) and the "
        "analyzer raises AnalysisError; generated only over NOT NULL "
        "columns, and in the negative mode.",
    ),
    Difference(
        "IN list holding NULL", "finding",
        "the engine ignored a NULL list element and, on strings, matched the "
        "text 'None': `s NOT IN ('a', NULL)` returned rows.  Fixed in "
        "InExpr.evaluate (tests/test_numeric_semantics.py::TestInListNulls).",
    ),
    Difference(
        "negative number in an IN list", "finding",
        "`i IN (-7)` raised AnalysisError: -7 parses as negation of a literal.  "
        "Fixed in the analyzer.",
    ),
    Difference(
        "scalar subquery over no rows", "finding",
        "`x < (SELECT avg(v) FROM t WHERE FALSE)` raised PlanError; SQL makes it "
        "NULL.  Fixed in the coordinator.",
    ),
    Difference(
        "string compared with NULL", "finding",
        "`s < NULL` raised TypeError: the NULL string literal held None.  "
        "Fixed in LiteralExpr.evaluate.",
    ),
    Difference(
        "SELECT DISTINCT with an alias under pushdown", "finding",
        "`SELECT DISTINCT s AS c0` under all-operator pushdown fused the "
        "renaming projection into the pushed aggregation; the residual plan "
        "read a missing column.  Fixed in OcsPlanOptimizer._fuse_projection.",
    ),
    Difference(
        "signed zero in GROUP BY and DISTINCT", "finding",
        "group and DISTINCT codes keyed floats by their bits, so -0.0 made a "
        "group apart from 0.0 although `=` holds them equal.  Fixed in "
        "exec.aggregates._factorize through exec.expressions.positive_zero.",
    ),
)


def _days(iso: str) -> int:
    return (datetime.date.fromisoformat(iso) - datetime.date(1970, 1, 1)).days


_DATE = re.compile(
    r"DATE\s+'(\d{4}-\d{2}-\d{2})'(?:\s*([+-])\s*INTERVAL\s+'(\d+)'\s+DAY)?",
    re.IGNORECASE,
)


def sqlite_dialect(sql: str) -> str:
    """A hand-written engine-dialect query in SQLite's dialect: DATE
    literals (with constant day INTERVALs folded in) become day numbers."""

    def fold(match: "re.Match[str]") -> str:
        iso, sign, days = match.groups()
        shift = 0 if sign is None else int(days) * (1 if sign == "+" else -1)
        return str(_days(iso) + shift)

    return _DATE.sub(fold, sql)


class _Variance:
    """The engine's sample variance: (sumsq - n*mean^2) / (n - 1),
    clamped at zero, NULL below two non-NULL rows."""

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.squares = 0.0

    def step(self, value: Any) -> None:
        if value is not None:
            self.n += 1
            self.total += float(value)
            self.squares += float(value) ** 2

    def finalize(self) -> Optional[float]:
        if self.n < 2:
            return None
        mean = self.total / self.n
        return max((self.squares - self.n * mean * mean) / (self.n - 1), 0.0)


class _Stddev(_Variance):
    def finalize(self) -> Optional[float]:
        variance = super().finalize()
        return None if variance is None else math.sqrt(variance)


def _value(v: Any) -> Any:
    return int(v) if isinstance(v, bool) else v


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, float) or isinstance(b, float):
            return math.isclose(a, b, rel_tol=_RTOL, abs_tol=_ATOL)
    return a == b


def _same_row(a: Sequence[Any], b: Sequence[Any]) -> bool:
    return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))


def _sort_key(row: Sequence[Any]) -> tuple:
    return tuple(
        (0, 0) if v is None
        else (1, float(f"{v:.6g}")) if isinstance(v, float)
        else (1, v) if isinstance(v, int)
        else (2, v)
        for v in row
    )


def _unmatched(got: List[tuple], want: List[tuple]) -> Tuple[List[tuple], List[tuple]]:
    """Rows of each side the other lacks (multiset, floats approximate)."""
    got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    if len(got) == len(want) and all(map(_same_row, got, want)):
        return [], []
    # Near-equal floats can straddle the sort's rounding: match greedily.
    left = list(want)
    extra = []
    for row in got:
        for i, candidate in enumerate(left):
            if _same_row(row, candidate):
                del left[i]
                break
        else:
            extra.append(row)
    return extra, left


class Referee:
    """An environment's tables, loaded into SQLite from the stored bytes."""

    def __init__(self, env: Any) -> None:
        self.db = sqlite3.connect(":memory:")
        self.db.create_aggregate("variance", 1, _Variance)
        self.db.create_aggregate("stddev", 1, _Stddev)
        metastore = env.metastore
        for schema in metastore.list_schemas():
            for table in metastore.list_tables(schema):
                self._load(env, metastore.get_table(schema, table))

    def _load(self, env: Any, descriptor: Any) -> None:
        fields = list(descriptor.table_schema)
        columns = ", ".join(f"{f.name} {_SQLITE_TYPES[f.dtype.name]}" for f in fields)
        self.db.execute(f"CREATE TABLE {descriptor.table_name} ({columns})")
        insert = (
            f"INSERT INTO {descriptor.table_name} VALUES "
            f"({', '.join('?' for _ in fields)})"
        )
        for key in descriptor.files:
            batch = ParcelReader(env.store.get_object(descriptor.bucket, key)).read_table()
            data = batch.to_pydict()
            self.db.executemany(insert, zip(*(data[f.name] for f in fields)))
        # Indexed integer columns turn correlated subqueries (TPC-H Q4's
        # EXISTS) into lookups instead of nested scans.
        for f in fields:
            if _SQLITE_TYPES[f.dtype.name] == "INTEGER":
                self.db.execute(
                    f"CREATE INDEX {descriptor.table_name}_{f.name} "
                    f"ON {descriptor.table_name} ({f.name})"
                )

    def rows(self, sql: str) -> List[tuple]:
        return [tuple(map(_value, row)) for row in self.db.execute(sql)]

    def check(
        self,
        batch: Any,
        sqlite_sql: str,
        order: Iterable[int] = (),
        limit: Optional[int] = None,
    ) -> None:
        """Assert the engine's ``batch`` answers ``sqlite_sql``.

        ``order`` lists the output positions of the ORDER BY keys;
        ``sqlite_sql`` must then be the query *without* its LIMIT, and
        ``limit`` the engine query's LIMIT.
        """
        data = batch.to_pydict()
        got = [tuple(map(_value, row)) for row in zip(*data.values())] if data else []
        want = self.rows(sqlite_sql)
        keys = list(order)
        context = f"\nSQLite: {sqlite_sql}"
        if not keys:
            extra, missing = _unmatched(got, want)
            assert not extra and not missing, (
                f"engine rows SQLite lacks: {extra[:5]}; SQLite rows the engine "
                f"lacks: {missing[:5]} ({len(got)} vs {len(want)} rows){context}"
            )
            return

        def key(row: tuple) -> tuple:
            return tuple(row[k] for k in keys)

        head = want if limit is None else want[:limit]
        assert len(got) == len(head), f"{len(got)} rows, SQLite {len(head)}{context}"
        for i, (mine, theirs) in enumerate(zip(got, head)):
            assert _same_row(key(mine), key(theirs)), (
                f"ORDER BY key #{i}: {key(mine)} vs SQLite {key(theirs)}{context}"
            )
        cut = key(head[-1]) if head and limit is not None and len(want) > limit else None

        def at_cut(row: tuple) -> bool:
            return cut is not None and _same_row(key(row), cut)

        extra, missing = _unmatched(
            [r for r in got if not at_cut(r)], [r for r in head if not at_cut(r)]
        )
        assert not extra and not missing, (
            f"engine rows SQLite lacks: {extra[:5]}; SQLite rows the engine "
            f"lacks: {missing[:5]}{context}"
        )
        extra, _ = _unmatched([r for r in got if at_cut(r)], [r for r in want if at_cut(r)])
        assert not extra, f"rows tied at the LIMIT cut SQLite lacks: {extra[:5]}{context}"
