"""The engine against stdlib ``sqlite3``, in every pushdown mode.

Two corpora, both refereed by :mod:`sqlite_referee`:

* the **named queries** — the paper's Laghos and Deep Water queries,
  TPC-H Q1, Q3, Q3_FULL, Q4, Q6, Q12, Q18 and the two queries at the
  parser's depth ceiling — on the standing ``small_env`` fixture;
* a **seeded generated corpus** over two small NULL-heavy tables, plus a
  negative mode of ill-typed statements that must fail typed, and a
  slice of it replayed under link drops with retries (the fault axis).

``python -m pytest -m slow tests/test_sqlite_referee.py`` runs the long
generated corpus and the long fault-axis run.
"""

import datetime
import pathlib
import random
import re
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.arrowsim import DATE32, FLOAT64, INT64, STRING, Field, RecordBatch, Schema
from repro.analysis.determinism import canonical_result_digest
from repro.bench import Environment, RunConfig
from repro.config import CacheSpec, FaultSpec
from repro.errors import ReproError
from repro.rpc import RetryPolicy
from repro.sql.parser import MAX_EXPRESSION_DEPTH
from repro.workloads import (
    DEEPWATER_QUERY,
    LAGHOS_QUERY,
    TPCH_Q1,
    TPCH_Q3,
    TPCH_Q3_FULL,
    TPCH_Q4,
    TPCH_Q6,
    TPCH_Q12,
    TPCH_Q18,
    DatasetSpec,
)
from sqlite_referee import DIALECT, Referee, sqlite_dialect

#: The pushdown modes every query must agree with SQLite under.
MODES = {
    "hive-raw": RunConfig(label="hive-raw", mode="hive-raw"),
    "filter-only": RunConfig.filter_only(),
    "all-operator": RunConfig(label="all-operator", mode="ocs"),
    "dynamic-filter": RunConfig.ocs("dynamic-filter", "filter", dynamic_filters=True),
}

# -- the named corpus ---------------------------------------------------------

#: name -> (schema, sql, ORDER BY output positions).
NAMED = {
    "laghos": ("hpc", LAGHOS_QUERY, (4,)),
    "deepwater": ("hpc", DEEPWATER_QUERY, ()),
    "q1": ("tpch", TPCH_Q1, (0, 1)),
    "q3": ("tpch", TPCH_Q3, (1, 2)),
    "q3_full": ("tpch", TPCH_Q3_FULL, (1, 2)),
    "q4": ("tpch", TPCH_Q4, (0,)),
    "q6": ("tpch", TPCH_Q6, ()),
    "q12": ("tpch", TPCH_Q12, (0,)),
    "q18": ("tpch", TPCH_Q18, (2, 1)),
    # At the parser's depth ceiling, both ways: tree height and nesting.
    "depth-height": (
        "tpch",
        "SELECT sum(" + " * ".join(["discount"] * (MAX_EXPRESSION_DEPTH - 1))
        + ") AS s FROM lineitem",
        (),
    ),
    "depth-nesting": (
        "tpch",
        "SELECT count(*) AS n, sum(tax) AS t FROM lineitem WHERE "
        + "(" * MAX_EXPRESSION_DEPTH + "tax > 0.01 AND quantity < 30"
        + ")" * MAX_EXPRESSION_DEPTH,
        (),
    ),
}

_LIMIT = re.compile(r"\s+LIMIT\s+(\d+)\s*$", re.IGNORECASE)


@pytest.fixture(scope="session")
def small_referee(small_env):
    return Referee(small_env)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", NAMED)
def test_named_query_agrees_with_sqlite(small_env, small_referee, name, mode):
    schema, sql, order = NAMED[name]
    result = small_env.run(sql, MODES[mode], schema=schema)
    assert result.rows > 0, "a named query must return rows on the fixture"
    limit = _LIMIT.search(sql)
    small_referee.check(
        result.batch,
        sqlite_dialect(_LIMIT.sub("", sql)),
        order=order,
        limit=int(limit.group(1)) if limit else None,
    )


def test_dialect_table_is_classified_and_documented():
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "STATIC_ANALYSIS.md").read_text()
    for difference in DIALECT:
        assert difference.kind in ("normalised", "excluded", "finding"), difference
        assert difference.name in doc, difference.name


# -- the generated corpus -----------------------------------------------------
#
# Two tables, NULL-heavy on purpose, spread over several files and row
# groups and stored under real codecs: ``t1`` (a fact table) and ``t2``
# (a dimension with duplicate and NULL join keys).  ``t1.big`` holds int64
# extremes and never feeds arithmetic (dialect table: int64 overflow);
# ``t1.nul`` is NULL everywhere and ``t1.f`` is NULL throughout one file.
# Floats are multiples of 1/4, so sums are exact in any order.

STRINGS = ("", "a", "b", "A", "None", "é", "ü日本", "zz", "a b", "it's")
INT64_EXTREMES = (2**63 - 1, -(2**63), -(2**63 - 1), 2**62, 0, 1, -1, 12345)

T1 = Schema([
    Field("id", INT64, nullable=False),
    Field("k", INT64),
    Field("i", INT64),
    Field("big", INT64),
    Field("f", FLOAT64),
    Field("s", STRING),
    Field("d", DATE32),
    Field("nul", INT64),
])
T2 = Schema([
    Field("k", INT64),
    Field("w", INT64, nullable=False),
    Field("g", STRING),
    Field("v", FLOAT64),
])
T1_FILES, T1_ROWS = 3, 150
T2_FILES, T2_ROWS = 2, 40


def _nullify(rng, values, fraction):
    return [None if rng.random() < fraction else v for v in values]


def _t1_file(i):
    rng = np.random.default_rng(100 + i)
    n = T1_ROWS
    return RecordBatch.from_pydict(T1, {
        "id": list(range(i * n, (i + 1) * n)),
        "k": _nullify(rng, rng.integers(0, 25, n).tolist(), 0.15),
        "i": _nullify(rng, rng.integers(-50, 51, n).tolist(), 0.3),
        "big": _nullify(rng, [INT64_EXTREMES[j] for j in rng.integers(0, 8, n)], 0.2),
        "f": [None] * n if i == 2 else _nullify(
            rng, (rng.integers(-400, 401, n) / 4).tolist(), 0.25
        ),
        "s": _nullify(rng, [STRINGS[j] for j in rng.integers(0, len(STRINGS), n)], 0.25),
        "d": _nullify(rng, (9000 + rng.integers(0, 120, n)).tolist(), 0.2),
        "nul": [None] * n,
    })


def _t2_file(i):
    rng = np.random.default_rng(200 + i)
    n = T2_ROWS
    return RecordBatch.from_pydict(T2, {
        "k": _nullify(rng, rng.integers(0, 30, n).tolist(), 0.15),
        "w": rng.integers(0, 40, n).tolist(),
        "g": _nullify(rng, [("x", "y", "", "None", "ß")[j] for j in rng.integers(0, 5, n)], 0.2),
        "v": _nullify(rng, (rng.integers(-200, 201, n) / 4).tolist(), 0.2),
    })


def build_fuzz_env():
    env = Environment()
    for name, files, generator, codec in (
        ("t1", T1_FILES, _t1_file, "zstd"),
        ("t2", T2_FILES, _t2_file, "gzip"),
    ):
        env.add_dataset(DatasetSpec(
            schema_name="fz", table_name=name, bucket="fz", file_count=files,
            generator=generator, codec=codec, row_group_rows=64,
        ))
    return env


@dataclass(frozen=True)
class Term:
    """One generated expression, rendered once per dialect."""

    engine: str
    sqlite: str
    #: "int", "float", "str", "date" or "bool".
    type: str
    #: Exact under any summation order (no sqrt, no inexact division).
    exact: bool = True
    #: May feed arithmetic and sum/avg (False: the int64-extreme column).
    arith: bool = True


def _same(text, type_, **kw):
    return Term(text, text, type_, **kw)


def _join(op, *parts, type_, exact=True):
    return Term(
        "(" + f" {op} ".join(p.engine for p in parts) + ")",
        "(" + f" {op} ".join(p.sqlite for p in parts) + ")",
        type_,
        exact=exact and all(p.exact for p in parts),
    )


def _call(name, arg, type_, exact=True):
    return Term(f"{name}({arg.engine})", f"{name}({arg.sqlite})", type_,
                exact=exact and arg.exact)


_EPOCH = datetime.date(1970, 1, 1)
_NUMERIC = ("int", "float")


@dataclass(frozen=True)
class Case:
    """One generated statement: both renderings plus how to compare."""

    engine: str
    #: SQLite rendering, without the LIMIT (see ``Referee.check``).
    sqlite: str
    order: Tuple[int, ...] = ()
    limit: Optional[int] = None


class Generator:
    """Seeded statements over ``t1``/``t2``, typed by the analyzer's rules."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.columns: List[Term] = []

    def scope(self, *tables):
        """Make the columns of ``(alias, schema)`` pairs visible."""
        types = {INT64: "int", FLOAT64: "float", STRING: "str", DATE32: "date"}
        self.columns = [
            _same(f"{alias}.{f.name}", types[f.dtype], arith=f.name != "big")
            for alias, schema in tables
            for f in schema
        ]

    # -- leaves ----------------------------------------------------------------

    def literal(self, type_):
        rng = self.rng
        if type_ == "int":
            return _same(str(rng.choice((-7, -1, 0, 1, 2, 3, 5, 10, 24, 49))), "int")
        if type_ == "float":
            return _same(repr(rng.choice((-2.5, -0.25, 0.0, 0.5, 1.5, 2.0, 12.75))), "float")
        if type_ == "str":
            quoted = "'" + rng.choice(STRINGS).replace("'", "''") + "'"
            return _same(quoted, "str")
        days = 8990 + rng.randrange(140)
        iso = (_EPOCH + datetime.timedelta(days=days)).isoformat()
        return Term(f"DATE '{iso}'", str(days), "date")

    def column(self, type_, arith=False):
        options = [c for c in self.columns if c.type == type_ and (c.arith or not arith)]
        return self.rng.choice(options) if options else self.literal(type_)

    # -- scalar expressions ----------------------------------------------------

    def expr(self, type_, depth=2):
        rng = self.rng
        if type_ == "bool":
            return self.predicate(depth)
        if depth <= 0 or rng.random() < 0.4:
            return self.column(type_) if rng.random() < 0.85 else self.literal(type_)
        if type_ == "int":
            a, b = self.expr("int", depth - 1), self.expr("int", depth - 1)
            if not (a.arith and b.arith):
                return a
            pick = rng.randrange(7)
            if pick < 4:  # / and % by zero are NULL in both dialects
                return _join(("+", "-", "/", "%")[pick], a, b, type_="int")
            if pick == 4:
                return _join("*", a, self.literal("int"), type_="int")
            if pick == 5:
                return Term(f"(- {a.engine})", f"(- {a.sqlite})", "int", exact=a.exact)
            f = self.expr("float", depth - 1)
            return Term(f"CAST({f.engine} AS bigint)", f"CAST({f.sqlite} AS INTEGER)", "int",
                     exact=f.exact)
        if type_ == "float":
            pick = rng.randrange(7)
            a = self.expr(rng.choice(_NUMERIC), depth - 1)
            if not a.arith:
                return self.column("float")
            if a.type == "int" and pick < 5:
                a = Term(f"CAST({a.engine} AS double)", f"CAST({a.sqlite} AS REAL)", "float",
                      exact=a.exact)
            if pick < 2:
                b = self.expr(rng.choice(_NUMERIC), depth - 1)
                if not b.arith:
                    return a
                return _join(("+", "-")[pick], a, b, type_="float")
            if pick == 2:
                return _join("*", a, self.literal("float"), type_="float")
            if pick == 3:  # non-zero power-of-two divisors keep quotients exact
                divisor = _same(rng.choice(("2.0", "0.5", "4.0", "-8.0")), "float")
                return _join("/", a, divisor, type_="float")
            if pick == 4:
                return _call(rng.choice(("abs", "floor", "ceil", "round")), a, "float")
            if pick == 5:
                return _call("sqrt", _call("abs", a, a.type), "float", exact=False)
            return _join("/", a, _same("3.0", "float"), type_="float", exact=False)
        if type_ == "date":
            d = self.expr("date", depth - 1)
            n = rng.randrange(1, 40)
            if rng.random() < 0.5:
                return Term(f"({d.engine} + INTERVAL '{n}' DAY)", f"({d.sqlite} + {n})", "date")
            return Term(f"({d.engine} - {n})", f"({d.sqlite} - {n})", "date")
        return self.column(type_)

    def predicate(self, depth=2):
        rng = self.rng
        if depth > 0 and rng.random() < 0.35:
            pick = rng.randrange(3)
            if pick == 2:
                p = self.predicate(depth - 1)
                return Term(f"(NOT {p.engine})", f"(NOT {p.sqlite})", "bool")
            return _join(("AND", "OR")[pick], self.predicate(depth - 1),
                         self.predicate(depth - 1), type_="bool")
        type_ = rng.choice(("int", "int", "float", "str", "date"))
        a = self.expr(type_, depth - 1)
        pick = rng.randrange(10)
        if pick < 4:
            b = self.literal(type_) if rng.random() < 0.5 else self.expr(type_, depth - 1)
            if rng.random() < 0.08:
                b = _same("NULL", type_)
            op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
            return _join(op, a, b, type_="bool")
        if pick < 6:
            items = [self.literal(type_) for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.35:
                items.insert(rng.randrange(len(items) + 1), _same("NULL", type_))
            neg = "NOT " if rng.random() < 0.5 else ""
            return Term(
                f"({a.engine} {neg}IN ({', '.join(x.engine for x in items)}))",
                f"({a.sqlite} {neg}IN ({', '.join(x.sqlite for x in items)}))",
                "bool",
            )
        if pick < 8:
            lo, hi = sorted((self.literal(type_), self.literal(type_)), key=lambda x: x.sqlite)
            neg = "NOT " if rng.random() < 0.3 else ""
            return Term(
                f"({a.engine} {neg}BETWEEN {lo.engine} AND {hi.engine})",
                f"({a.sqlite} {neg}BETWEEN {lo.sqlite} AND {hi.sqlite})",
                "bool",
            )
        suffix = rng.choice(("IS NULL", "IS NOT NULL"))
        return Term(f"({a.engine} {suffix})", f"({a.sqlite} {suffix})", "bool")

    # -- aggregates and statements ---------------------------------------------

    def aggregate(self):
        """One aggregate call (its type: "int", "float" or its argument's)."""
        rng = self.rng
        func = rng.choice(("count", "count", "sum", "avg", "min", "max", "variance", "stddev"))
        if func == "count" and rng.random() < 0.4:
            return _same("count(*)", "int")
        if func in ("min", "max", "count"):
            arg = self.expr(rng.choice(("int", "float", "str", "date")), 1)
        elif func in ("variance", "stddev"):
            arg = self.column(rng.choice(_NUMERIC), arith=True)
        else:
            arg = self.expr(rng.choice(_NUMERIC), 1)
            if not (arg.exact and arg.arith):
                arg = self.column(arg.type, arith=True)
        distinct = "DISTINCT " if func in ("count", "sum", "avg") and rng.random() < 0.25 else ""
        type_ = {"count": "int", "avg": "float", "variance": "float", "stddev": "float"}
        return Term(
            f"{func}({distinct}{arg.engine})", f"{func}({distinct}{arg.sqlite})",
            type_.get(func, arg.type), arith=arg.arith or func not in ("min", "max"),
        )

    def statement(self):
        """A statement over one FROM clause, with a WHERE it is handed."""
        rng = self.rng
        shape = rng.choice(("scan", "group", "group", "global"))
        items: List[Tuple[str, str]] = []
        group: List[Term] = []
        if shape == "scan":
            for _ in range(rng.randrange(1, 4)):
                e = self.expr(rng.choice(("int", "float", "str", "date", "bool")))
                items.append((e.engine, e.sqlite))
        else:
            if shape == "group":
                for _ in range(rng.randrange(1, 3)):
                    key = rng.choice(self.columns)  # a column, never a literal
                    if key.type == "int" and key.arith and rng.random() < 0.3:
                        key = _join("%", key, _same("3", "int"), type_="int")
                    if key not in group:
                        group.append(key)
                items += [(k.engine, k.sqlite) for k in group]
            for _ in range(rng.randrange(1, 4)):
                agg = self.aggregate()
                items.append((agg.engine, agg.sqlite))
            agg = self.aggregate()
            if agg.type in _NUMERIC and agg.arith and rng.random() < 0.3:
                n = rng.choice(("2", "3"))
                items.append((f"({agg.engine} * {n})", f"({agg.sqlite} * {n})"))
        return shape, items, group

    def render(self, from_engine, from_sqlite, where, ctes=("", "")):
        """One full statement over the given FROM and WHERE conjuncts."""
        rng = self.rng
        shape, items, group = self.statement()
        distinct = "DISTINCT " if shape == "scan" and rng.random() < 0.2 else ""
        select = [f"{e} AS c{n}" for n, (e, _) in enumerate(items)]
        select_sqlite = [f"{q} AS c{n}" for n, (_, q) in enumerate(items)]
        engine = f"{ctes[0]}SELECT {distinct}{', '.join(select)} FROM {from_engine}"
        sqlite = f"{ctes[1]}SELECT {distinct}{', '.join(select_sqlite)} FROM {from_sqlite}"
        if where:
            engine += " WHERE " + " AND ".join(w.engine for w in where)
            sqlite += " WHERE " + " AND ".join(w.sqlite for w in where)
        if group:
            engine += " GROUP BY " + ", ".join(k.engine for k in group)
            sqlite += " GROUP BY " + ", ".join(k.sqlite for k in group)
            agg = self.aggregate()
            if agg.type in _NUMERIC and rng.random() < 0.3:
                op, n = rng.choice((">", ">=", "<")), rng.choice(("0", "1", "3"))
                engine += f" HAVING {agg.engine} {op} {n}"
                sqlite += f" HAVING {agg.sqlite} {op} {n}"
        order: Tuple[int, ...] = ()
        limit = None
        if shape != "global" and rng.random() < 0.5:
            keys = list(range(len(items)))
            rng.shuffle(keys)
            order = tuple(keys)
            dirs = [rng.choice(("", " DESC")) for _ in order]
            engine += " ORDER BY " + ", ".join(f"c{n}{d}" for n, d in zip(order, dirs))
            sqlite += " ORDER BY " + ", ".join(
                f"c{n}{d} NULLS LAST" for n, d in zip(order, dirs)
            )
            if rng.random() < 0.6:
                limit = rng.randrange(1, 25)
                engine += f" LIMIT {limit}"
        return Case(engine, sqlite, order, limit)

    def case(self):
        """One statement: a shape over t1, a t1/t2 join, a subquery or a CTE."""
        rng = self.rng
        kind = rng.choice(("t1", "t1", "join", "left", "exists", "in", "scalar", "cte"))
        if kind == "cte":
            return self._cte_case()
        joined = kind in ("join", "left")
        self.scope(("t1", T1), *([("t2", T2)] if joined else []))
        where = [self.predicate() for _ in range(rng.randrange(0, 3))]
        if joined:
            on = f"t1 {'JOIN' if kind == 'join' else 'LEFT JOIN'} t2 ON t1.k = t2.k"
            return self.render(on, on, where)
        if kind == "exists":
            inner = self._inner_predicate()
            neg = rng.choice(("", "NOT "))
            where.append(Term(
                f"{neg}EXISTS (SELECT 1 FROM t2 WHERE t2.k = t1.k{inner[0]})",
                f"{neg}EXISTS (SELECT 1 FROM t2 WHERE t2.k = t1.k{inner[1]})",
                "bool",
            ))
        elif kind == "in":
            inner = self._inner_predicate()
            # NOT IN only over NOT NULL columns (dialect table).
            probe, build, neg = rng.choice(
                (("t1.k", "k", ""), ("t1.id", "w", ""), ("t1.id", "w", "NOT "))
            )
            where.append(Term(
                f"{probe} {neg}IN (SELECT {build} FROM t2 WHERE TRUE{inner[0]})",
                f"{probe} {neg}IN (SELECT {build} FROM t2 WHERE TRUE{inner[1]})",
                "bool",
            ))
        elif kind == "scalar":
            func = rng.choice(("avg", "max", "min", "sum"))
            column, probe = rng.choice((("v", "t1.f"), ("w", "t1.i")))
            inner = self._inner_predicate()
            op = rng.choice(("<", ">", "=", "<>"))
            where.append(Term(
                f"{probe} {op} (SELECT {func}({column}) FROM t2 WHERE TRUE{inner[0]})",
                f"{probe} {op} (SELECT {func}({column}) FROM t2 WHERE TRUE{inner[1]})",
                "bool",
            ))
        return self.render("t1", "t1", where)

    def _inner_predicate(self):
        """An optional extra conjunct over t2 for a subquery body."""
        if self.rng.random() < 0.5:
            return "", ""
        outer = self.columns
        self.scope(("t2", T2))
        p = self.predicate(1)
        self.columns = outer
        return f" AND {p.engine}", f" AND {p.sqlite}"

    def _cte_case(self):
        rng = self.rng
        if rng.random() < 0.5:  # a plain select: the rewriter inlines it
            self.scope(("t1", T1))
            body = [self.predicate()] if rng.random() < 0.7 else []
            where_engine = (" WHERE " + body[0].engine) if body else ""
            where_sqlite = (" WHERE " + body[0].sqlite) if body else ""
            columns = "id, k, i, f, s, d"
            schema = Schema([T1.field(n.strip()) for n in columns.split(",")])
        else:  # aggregating: the rewriter materializes it
            where_engine = where_sqlite = " GROUP BY k"
            columns = "k, count(*) AS n, sum(i) AS si, min(s) AS ms"
            schema = Schema([
                Field("k", INT64), Field("n", INT64, nullable=False),
                Field("si", INT64), Field("ms", STRING),
            ])
        ctes = (
            f"WITH c AS (SELECT {columns} FROM t1{where_engine}) ",
            f"WITH c AS (SELECT {columns} FROM t1{where_sqlite}) ",
        )
        self.scope(("c", schema))
        where = [self.predicate() for _ in range(rng.randrange(0, 2))]
        return self.render("c", "c", where, ctes=ctes)


@pytest.fixture(scope="module")
def fuzz_env():
    return build_fuzz_env()


@pytest.fixture(scope="module")
def fuzz_referee(fuzz_env):
    return Referee(fuzz_env)


#: A cache tier per sampled query: whole results, or split/storage pages.
CACHE_SPECS = (CacheSpec(), CacheSpec(enable_results=False))


def agree_everywhere(env, referee, case, cached=None):
    """``case`` matches SQLite in every mode (and, when ``cached`` is a
    :class:`CacheSpec`, cold then warm under FIFO and LIFO tie-breaks)."""
    runs = [(name, config, "fifo") for name, config in MODES.items()]
    if cached is not None:
        config = RunConfig(label="cached", mode="ocs", cache=cached)
        runs += [("cache-cold-fifo", config, "fifo"), ("cache-warm-lifo", config, "lifo")]
    for name, config, tie_break in runs:
        try:
            result = env.run(case.engine, config, schema="fz", tie_break=tie_break)
            referee.check(result.batch, case.sqlite, order=case.order, limit=case.limit)
        except Exception as exc:
            raise AssertionError(f"[{name}] {case.engine}\n{exc}") from exc


#: The referee's findings, pinned: each statement failed before its fix
#: (the IN-list-with-NULL one is pinned in test_numeric_semantics).
FINDINGS = {
    "negative-in-list": "SELECT t1.id AS c0 FROM t1 WHERE t1.i IN (-7, -1)",
    "empty-scalar-subquery": (
        "SELECT count(*) AS c0 FROM t1 WHERE t1.f < (SELECT avg(v) FROM t2 WHERE t2.w < 0)"
    ),
    "string-vs-null": "SELECT t1.id AS c0, (t1.s < NULL) AS c1 FROM t1",
    "distinct-alias": "SELECT DISTINCT t1.s AS c0, t1.k AS c1 FROM t1",
}


@pytest.mark.parametrize("name", FINDINGS)
def test_finding_stays_fixed(fuzz_env, fuzz_referee, name):
    sql = FINDINGS[name]  # the same text in both dialects
    agree_everywhere(fuzz_env, fuzz_referee, Case(sql, sql))


TIER1_SEEDS = 120
SLOW_SEEDS = 2000


def _agree_on_seed(env, referee, seed):
    cached = CACHE_SPECS[seed // 4 % 2] if seed % 4 == 0 else None
    agree_everywhere(env, referee, Generator(seed).case(), cached)


@pytest.mark.parametrize("seed", range(TIER1_SEEDS))
def test_generated_query_agrees_with_sqlite(fuzz_env, fuzz_referee, seed):
    _agree_on_seed(fuzz_env, fuzz_referee, seed)


@pytest.mark.slow
def test_long_generated_run_agrees_with_sqlite(fuzz_env, fuzz_referee):
    failures = []
    for seed in range(TIER1_SEEDS, TIER1_SEEDS + SLOW_SEEDS):
        try:
            _agree_on_seed(fuzz_env, fuzz_referee, seed)
        except AssertionError as exc:
            failures.append(f"seed {seed}: {exc}")
    assert not failures, f"{len(failures)} seeds disagree:\n\n" + "\n\n".join(failures[:5])


# -- the fault axis -------------------------------------------------------------
#
# Pushdown is transparent: every mode returns the healthy answer under link
# drops once its retries absorb them.  The referee modes answer to SQLite;
# hive-select, whose CSV transport reads an empty string back as NULL,
# answers to its own healthy run (without the LIMIT, whose tied rows may
# legitimately differ when splits arrive in another order).

LINK_DROPS = FaultSpec(link_drop_probability=0.2, seed=3)
DROP_RETRY = RetryPolicy(max_attempts=10, initial_backoff_s=0.005)
FAULT_MODES = {**MODES, "hive-select": RunConfig(label="hive-select", mode="hive-select")}
FAULT_TIER1_SEEDS = 12
FAULT_SLOW_SEEDS = 40


def agree_under_link_drops(env, referee, case, mode):
    """``case`` gives the healthy answer in ``mode`` under ``LINK_DROPS``."""
    config = FAULT_MODES[mode]
    faulted = replace(config, faults=LINK_DROPS, retry=DROP_RETRY)
    try:
        if mode == "hive-select":
            sql = _LIMIT.sub("", case.engine)
            got = env.run(sql, faulted, schema="fz").batch
            want = env.run(sql, config, schema="fz").batch
            assert canonical_result_digest(got) == canonical_result_digest(want)
        else:
            result = env.run(case.engine, faulted, schema="fz")
            referee.check(result.batch, case.sqlite, order=case.order, limit=case.limit)
    except Exception as exc:
        raise AssertionError(f"[{mode} under link drops] {case.engine}\n{exc}") from exc


@pytest.mark.parametrize("mode", FAULT_MODES)
@pytest.mark.parametrize("seed", range(FAULT_TIER1_SEEDS))
def test_generated_query_survives_link_drops(fuzz_env, fuzz_referee, seed, mode):
    agree_under_link_drops(fuzz_env, fuzz_referee, Generator(seed).case(), mode)


@pytest.mark.slow
def test_long_generated_run_survives_link_drops(fuzz_env, fuzz_referee):
    failures = []
    for seed in range(FAULT_TIER1_SEEDS, FAULT_TIER1_SEEDS + FAULT_SLOW_SEEDS):
        case = Generator(seed).case()
        for mode in FAULT_MODES:
            try:
                agree_under_link_drops(fuzz_env, fuzz_referee, case, mode)
            except AssertionError as exc:
                failures.append(f"seed {seed}: {exc}")
    assert not failures, f"{len(failures)} runs disagree:\n\n" + "\n\n".join(failures[:5])


# -- signed zero -----------------------------------------------------------------
#
# SQL ``=`` holds -0.0 equal to +0.0, so grouping, DISTINCT and
# count(DISTINCT) must make them one value too.  ``z_none``/``z_zstd``:
# two files each of a float column cycling 0.0, -0.0, 1.5, NULL in 16-row
# row groups, stored plain and under zstd.

ZEROS = Schema([Field("f", FLOAT64), Field("k", INT64)])
ZERO_CYCLE = (0.0, -0.0, 1.5, None)
SIGNED_ZERO = {
    "group-by": "SELECT f AS c0, count(*) AS c1 FROM {t} GROUP BY f",
    "distinct": "SELECT DISTINCT f AS c0 FROM {t}",
    "count-distinct": "SELECT count(DISTINCT f) AS c0 FROM {t}",
    "grouped-count-distinct": "SELECT k AS c0, count(DISTINCT f) AS c1 FROM {t} GROUP BY k",
    "equality": "SELECT count(*) AS c0 FROM {t} WHERE f = -0.0",
}


def _zeros_file(i):
    n = 48
    return RecordBatch.from_pydict(ZEROS, {
        "f": [ZERO_CYCLE[j % 4] for j in range(n)],
        "k": [(i + j) % 3 for j in range(n)],
    })


@pytest.fixture(scope="module")
def zeros_env():
    env = Environment()
    for codec in ("none", "zstd"):
        env.add_dataset(DatasetSpec(
            schema_name="fz", table_name=f"z_{codec}", bucket="fz", file_count=2,
            generator=_zeros_file, codec=codec, row_group_rows=16,
        ))
    return env


@pytest.fixture(scope="module")
def zeros_referee(zeros_env):
    return Referee(zeros_env)


@pytest.mark.parametrize("codec", ("none", "zstd"))
@pytest.mark.parametrize("name", SIGNED_ZERO)
def test_signed_zero_is_one_value(zeros_env, zeros_referee, name, codec):
    sql = SIGNED_ZERO[name].format(t=f"z_{codec}")
    agree_everywhere(zeros_env, zeros_referee, Case(sql, sql))


# -- the negative mode ----------------------------------------------------------
#
# Ill-typed statements, built from the same typed pieces: each must fail
# with a ReproError carrying the stable code its kind declares, and
# nothing else (no TypeError, no KeyError, no wrong answer).


def ill_typed(seed):
    """(kind, statement, expected code) for one seeded ill-typed query."""
    g = Generator(seed)
    g.scope(("t1", T1))
    rng = g.rng
    num = g.expr(rng.choice(_NUMERIC), 1)
    text = g.expr("str", 1)
    pred = g.predicate(1)
    kinds = {
        "string arithmetic": (f"SELECT ({text.engine} + {num.engine}) AS c0 FROM t1",
                              "EXPRESSION"),
        "date times a number": (f"SELECT (t1.d * {num.engine}) AS c0 FROM t1", "EXPRESSION"),
        "non-boolean WHERE": (f"SELECT t1.id AS c0 FROM t1 WHERE {num.engine}",
                              "SQL_ANALYSIS"),
        "WHERE NULL": ("SELECT t1.id AS c0 FROM t1 WHERE NULL", "SQL_ANALYSIS"),
        "string vs number": (f"SELECT t1.id AS c0 FROM t1 WHERE {text.engine} > {num.engine}",
                             "SQL_ANALYSIS"),
        "AND of a number": (f"SELECT t1.id AS c0 FROM t1 WHERE {pred.engine} AND {num.engine}",
                            "SQL_ANALYSIS"),
        "NOT of a string": (f"SELECT t1.id AS c0 FROM t1 WHERE NOT {text.engine}",
                            "SQL_ANALYSIS"),
        "sum of a string": (f"SELECT sum({text.engine}) AS c0 FROM t1", "SQL_ANALYSIS"),
        "sqrt of a string": (f"SELECT sqrt({text.engine}) AS c0 FROM t1", "SQL_ANALYSIS"),
        "aggregate in WHERE": (
            f"SELECT t1.id AS c0 FROM t1 WHERE count(*) > {rng.randrange(5)}", "SQL_ANALYSIS"
        ),
        "column outside GROUP BY": (
            "SELECT t1.i AS c0, count(*) AS c1 FROM t1 GROUP BY t1.k", "SQL_ANALYSIS"
        ),
        "non-literal IN item": (
            f"SELECT t1.id AS c0 FROM t1 WHERE t1.i IN (1, {g.column('int').engine})",
            "SQL_ANALYSIS",
        ),
        "unknown column": ("SELECT t1.nope AS c0 FROM t1", "SQL_ANALYSIS"),
        "join key type mismatch": (
            "SELECT t1.id AS c0 FROM t1 JOIN t2 ON t1.s = t2.k", "JOIN_KEY_MISMATCH"
        ),
        "NOT IN over a nullable subquery": (
            "SELECT t1.id AS c0 FROM t1 WHERE t1.k NOT IN (SELECT k FROM t2)", "SQL_ANALYSIS"
        ),
        "uncorrelated EXISTS": (
            "SELECT t1.id AS c0 FROM t1 WHERE EXISTS (SELECT 1 FROM t2)", "SQL_ANALYSIS"
        ),
    }
    kind = sorted(kinds)[seed % len(kinds)]  # every kind, with fresh pieces each lap
    return (kind, *kinds[kind])


@pytest.mark.parametrize("seed", range(48))
def test_ill_typed_statement_fails_typed(fuzz_env, seed):
    kind, sql, code = ill_typed(seed)
    for mode in ("hive-raw", "all-operator"):
        with pytest.raises(ReproError) as caught:
            fuzz_env.run(sql, MODES[mode], schema="fz")
        assert caught.value.code == code, f"{kind} [{mode}]: {sql}\n{caught.value!r}"
