"""Regression tests for the numeric-kernel correctness fixes.

Each test here failed before its fix:

* integer division was routed through float64, losing precision for
  quotients beyond 2**53;
* ``%`` used ``np.remainder`` (divisor's sign) instead of SQL/Presto
  semantics (dividend's sign);
* ``round`` used ``np.round`` (half-to-even) instead of Presto's
  half-away-from-zero;
* multi-key group-by / join code packing silently wrapped int64 once
  the mixed-radix product exceeded 2**63, merging distinct groups;
* ``IN`` / ``NOT IN`` ignored a NULL list element (``x NOT IN (1, NULL)``
  was TRUE for every non-NULL ``x`` other than 1, where SQL says it is
  never TRUE), and on strings it matched the literal text ``'None'``;
* group and DISTINCT codes keyed floats by their bits, so ``-0.0`` made
  a group apart from ``0.0`` although ``=`` holds them equal.

The pushed-vs-local suite at the bottom pins the same semantics through
the Substrait path: the OCS embedded engine must agree with compute-side
evaluation on every edge case.
"""

import numpy as np
import pytest

from repro.arrowsim import FLOAT64, INT64, STRING, Field, RecordBatch, Schema
from repro.bench import Environment, RunConfig
from repro.exec.operators import HashJoinOperator, run_operators
from repro.exec.aggregates import AggregateSpec, _group_rows, grouped_aggregate
from repro.exec.expressions import ArithExpr, ColumnExpr, LiteralExpr, ScalarFuncExpr
from repro.workloads.datasets import DatasetSpec
from repro.arrowsim.record_batch import concat_batches


def _int_batch(name, values):
    return RecordBatch.from_arrays({name: np.asarray(values, dtype=np.int64)})


def _float_batch(name, values):
    return RecordBatch.from_arrays({name: np.asarray(values, dtype=np.float64)})


class TestIntegerDivision:
    def test_large_quotient_is_exact(self):
        # (2**62 + 1) // 3 is not representable in float64; the old
        # float-mediated path returned a quotient off by tens of units.
        batch = _int_batch("x", [2**62 + 1])
        expr = ArithExpr("/", ColumnExpr("x", INT64), LiteralExpr(3, INT64), INT64)
        assert expr.evaluate(batch).values[0] == (2**62 + 1) // 3 == 1537228672809129301

    def test_truncates_toward_zero(self):
        batch = _int_batch("x", [7, -7, 9, -9])
        expr = ArithExpr("/", ColumnExpr("x", INT64), LiteralExpr(2, INT64), INT64)
        assert expr.evaluate(batch).values.tolist() == [3, -3, 4, -4]

    def test_negative_large_quotient(self):
        batch = _int_batch("x", [-(2**62 + 1)])
        expr = ArithExpr("/", ColumnExpr("x", INT64), LiteralExpr(3, INT64), INT64)
        assert expr.evaluate(batch).values[0] == -1537228672809129301

    def test_divide_by_zero_still_null(self):
        batch = _int_batch("x", [10, 20])
        expr = ArithExpr("/", ColumnExpr("x", INT64), LiteralExpr(0, INT64), INT64)
        col = expr.evaluate(batch)
        assert not col.is_valid().any()


class TestModuloSign:
    def test_mod_takes_dividend_sign(self):
        # Presto: mod(-7, 3) = -1, mod(7, -3) = 1.  np.remainder gives the
        # divisor's sign (2 and -2 respectively).
        batch = _int_batch("x", [-7, 7, -7, 7])
        div = _int_batch("d", [3, -3, -3, 3])
        merged = RecordBatch.from_arrays(
            {"x": batch.column("x").values, "d": div.column("d").values}
        )
        expr = ArithExpr("%", ColumnExpr("x", INT64), ColumnExpr("d", INT64), INT64)
        assert expr.evaluate(merged).values.tolist() == [-1, 1, -1, 1]

    def test_float_mod_dividend_sign(self):
        batch = _float_batch("x", [-7.5, 7.5])
        expr = ArithExpr(
            "%", ColumnExpr("x", FLOAT64), LiteralExpr(2.0, FLOAT64), FLOAT64
        )
        assert expr.evaluate(batch).values.tolist() == [-1.5, 1.5]

    def test_mod_by_zero_is_null(self):
        batch = _int_batch("x", [5])
        expr = ArithExpr("%", ColumnExpr("x", INT64), LiteralExpr(0, INT64), INT64)
        assert not expr.evaluate(batch).is_valid().any()


class TestRoundHalfAwayFromZero:
    def test_halves_round_away_from_zero(self):
        batch = _float_batch("x", [2.5, -2.5, 0.5, -0.5, 1.5, -1.5])
        expr = ScalarFuncExpr("round", ColumnExpr("x", FLOAT64), FLOAT64)
        # np.round (half-to-even) would give [2, -2, 0, -0, 2, -2].
        assert expr.evaluate(batch).values.tolist() == [3.0, -3.0, 1.0, -1.0, 2.0, -2.0]

    def test_non_halves_unchanged(self):
        batch = _float_batch("x", [2.4, -2.4, 2.6, -2.6])
        expr = ScalarFuncExpr("round", ColumnExpr("x", FLOAT64), FLOAT64)
        assert expr.evaluate(batch).values.tolist() == [2.0, -2.0, 3.0, -3.0]

    def test_integer_inputs_pass_through_exactly(self):
        # A float64 detour would corrupt int64 values beyond 2**53.
        batch = _int_batch("x", [2**62 + 1, -5, 0])
        expr = ScalarFuncExpr("round", ColumnExpr("x", INT64), INT64)
        assert expr.evaluate(batch).values.tolist() == [2**62 + 1, -5, 0]

    def test_large_floats_and_nonfinite_left_alone(self):
        big = 2.0**52
        batch = _float_batch("x", [big, -big, np.inf, -np.inf, np.nan])
        expr = ScalarFuncExpr("round", ColumnExpr("x", FLOAT64), FLOAT64)
        out = expr.evaluate(batch).values
        assert out[0] == big and out[1] == -big
        assert np.isposinf(out[2]) and np.isneginf(out[3]) and np.isnan(out[4])


def _five_key_batch():
    """8193 distinct 5-column key tuples whose naive mixed-radix packing
    wraps int64.

    Each column holds 8192 distinct values, so the radix product is
    8192**5 = 2**65 > 2**63.  Rows 0..8191 are (r, r, r, r, r); the extra
    row is (4096, 0, 0, 0, 0), whose packed code differs from row 0's by
    4096 * 8192**4 = 2**64 — exactly one int64 wrap, so the buggy packing
    collides it with row 0 and reports 8192 groups instead of 8193.
    """
    base = np.arange(8192, dtype=np.int64)
    cols = {}
    for j in range(5):
        extra = 4096 if j == 0 else 0
        cols[f"k{j}"] = np.concatenate([base, np.asarray([extra], dtype=np.int64)])
    return RecordBatch.from_arrays(cols)


class TestGroupCodeOverflow:
    def test_group_rows_survives_radix_overflow(self):
        batch = _five_key_batch()
        gids, first_idx, ngroups = _group_rows(batch, [f"k{j}" for j in range(5)])
        assert ngroups == 8193
        # Every row is its own group: gids must be a permutation-free
        # assignment with one row per group.
        assert len(np.unique(gids)) == 8193
        assert len(first_idx) == 8193

    def test_hash_join_survives_radix_overflow(self):
        batch = _five_key_batch()
        keys = [f"k{j}" for j in range(5)]
        schema = Schema([Field(k, INT64) for k in keys])
        op = HashJoinOperator(
            kind="inner",
            left_keys=keys,
            right_keys=keys,
            right_schema=schema,
            right_renames={k: f"r${k}" for k in keys},
        )
        op.add_build(batch)
        op.finish_build()
        out = concat_batches(run_operators([batch], [op]))
        # Self-join on all-distinct tuples: exactly one match per row.
        # Wrapped codes either go negative (treated as NULL -> rows lost)
        # or collide (extra matches).
        assert out.num_rows == batch.num_rows == 8193
        for k in keys:
            assert out.column(k).values.tolist() == out.column(f"r${k}").values.tolist()


# --------------------------------------------------------------------------
# Pushed (Substrait -> OCS embedded engine) vs local agreement
# --------------------------------------------------------------------------

EDGE_QUERY = """
SELECT n,
       n / 7 AS q,
       n % 7 AS m,
       round(half) AS r,
       big / 3 AS bigq
FROM edges
"""


class TestSignedZeroKeys:
    """-0.0 and 0.0 are one key in every aggregation phase."""

    COUNT = [AggregateSpec("count", None, "n")]

    def test_partial_phase_makes_one_group(self):
        batch = _float_batch("f", [0.0, -0.0, 1.5, -0.0])
        out = grouped_aggregate(batch, ["f"], self.COUNT, phase="partial").to_pydict()
        assert sorted(zip(out["f"], out["n"])) == [(0.0, 3), (1.5, 1)]

    def test_final_merge_joins_partials_that_saw_different_zeros(self):
        # One storage node saw only -0.0, another only 0.0: the partials
        # each hold one zero group, and only the final merge can join them.
        left = grouped_aggregate(_float_batch("f", [-0.0, -0.0]), ["f"], self.COUNT, "partial")
        right = grouped_aggregate(_float_batch("f", [0.0, 1.5]), ["f"], self.COUNT, "partial")
        merged = grouped_aggregate(
            concat_batches([left, right]), ["f"], self.COUNT, phase="final"
        ).to_pydict()
        assert sorted(zip(merged["f"], merged["n"])) == [(0.0, 3), (1.5, 1)]

    def test_distinct_count_sees_one_zero(self):
        batch = RecordBatch.from_arrays({
            "g": np.zeros(4, dtype=np.int64),
            "f": np.asarray([0.0, -0.0, 1.5, 0.0]),
        })
        spec = AggregateSpec("count", "f", "n", input_dtype=FLOAT64, distinct=True)
        out = grouped_aggregate(batch, ["g"], [spec]).to_pydict()
        assert out["n"] == [2]


def _edge_env():
    def gen(i):
        n = np.arange(-64, 64, dtype=np.int64)
        return RecordBatch.from_arrays(
            {
                "n": n,
                "half": n.astype(np.float64) + 0.5,
                "big": np.asarray([2**62 + 1] * len(n), dtype=np.int64),
            }
        )

    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="lab",
            table_name="edges",
            bucket="edges",
            file_count=2,
            generator=gen,
        )
    )
    return env


class TestPushedVsLocalSemantics:
    def test_ocs_agrees_with_hive_raw_on_edge_cases(self):
        from repro.analysis.determinism import canonical_result_digest

        env = _edge_env()
        raw = env.run(EDGE_QUERY, RunConfig(label="raw", mode="hive-raw"), schema="lab")
        ocs = env.run(EDGE_QUERY, RunConfig(label="ocs", mode="ocs"), schema="lab")
        assert canonical_result_digest(raw.batch) == canonical_result_digest(ocs.batch)
        data = raw.batch.to_pydict()
        by_n = {n: (q, m, r, bq) for n, q, m, r, bq in zip(
            data["n"], data["q"], data["m"], data["r"], data["bigq"]
        )}
        # Spot-check the SQL semantics end to end, not just agreement.
        assert by_n[-8][:3] == (-1, -1, -8.0)   # -8/7 trunc, mod sign, round(-7.5)
        assert by_n[8][:3] == (1, 1, 9.0)       # round(8.5) away from zero
        assert by_n[0][3] == (2**62 + 1) // 3   # exact big-int division


# --------------------------------------------------------------------------
# IN lists holding NULL: SQL three-valued logic in every evaluation site
# --------------------------------------------------------------------------

_NULLS_SCHEMA = Schema([Field("k", INT64), Field("s", STRING)])


def _nulls_rows(i):
    """300 rows per file: ``k`` cycles 0..4 with NULLs, ``s`` holds 'a',
    'b', the literal text 'None' and NULLs."""
    n = np.arange(300) + 300 * i
    return {
        "k": [None if v % 7 == 0 else int(v % 5) for v in n],
        "s": [[None, "a", "b", "None"][v % 4] if v % 11 else None for v in n],
    }


@pytest.fixture(scope="module")
def nulls_env():
    env = Environment()
    env.add_dataset(
        DatasetSpec(
            schema_name="lab",
            table_name="nulls",
            bucket="nulls",
            file_count=2,
            generator=lambda i: RecordBatch.from_pydict(_NULLS_SCHEMA, _nulls_rows(i)),
            row_group_rows=128,
        )
    )
    return env


def _in_3vl(value, options):
    """Reference: SQL ``value IN (options)`` as True/False/None."""
    if value is None:
        return None
    if value in [o for o in options if o is not None]:
        return True
    return None if None in options else False


IN_LIST_MODES = [
    RunConfig(label="hive-raw", mode="hive-raw"),
    RunConfig.filter_only(),
    RunConfig(label="all-operator", mode="ocs"),
]


class TestInListNulls:
    @pytest.mark.parametrize("config", IN_LIST_MODES, ids=lambda c: c.label)
    @pytest.mark.parametrize(
        "column,options",
        [("s", ("a", None)), ("k", (1, 2, None)), ("s", ("a", "b")), ("k", (3,))],
        ids=["str-null", "int-null", "str", "int"],
    )
    def test_in_and_not_in_follow_three_valued_logic(
        self, nulls_env, config, column, options
    ):
        rows = [v for i in range(2) for v in _nulls_rows(i)[column]]
        verdicts = [_in_3vl(v, options) for v in rows]
        listed = ", ".join("NULL" if o is None else repr(o) for o in options)
        for negated, expected in (
            ("", verdicts.count(True)),
            ("NOT ", verdicts.count(False)),
        ):
            sql = f"SELECT count(*) AS n FROM nulls WHERE {column} {negated}IN ({listed})"
            result = nulls_env.run(sql, config, schema="lab")
            assert result.to_pydict()["n"] == [expected], sql
        sql = f"SELECT count(*) AS n FROM nulls WHERE ({column} IN ({listed})) IS NULL"
        result = nulls_env.run(sql, config, schema="lab")
        assert result.to_pydict()["n"] == [verdicts.count(None)], sql

    def test_substrait_in_list_carries_null_options(self):
        from repro.substrait.expressions import SFieldRef, SInList
        from repro.substrait.serde import decode_expression, encode_expression

        for dtype, options in ((STRING, ("a", None)), (INT64, (1, None, 2))):
            expr = SInList(SFieldRef(0, dtype), options, dtype, negated=True)
            assert decode_expression(encode_expression(expr)) == expr
