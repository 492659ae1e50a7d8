"""Tests for the rule-driven logical rewriter (repro.rewrite).

Three layers:

* per-rule unit tests against a synthetic catalog — positive, negative,
  and guard (veto) cases for every rule in the default catalog;
* engine tests — fixpoint termination, idempotence, budget exhaustion;
* end-to-end tests through the bench environment — rewrite-on/off
  digest parity, seeded byte-identical replay and EXPLAIN (SQLite
  referees TPC-H Q4 and Q18 in tests/test_sqlite_referee.py).
"""

import pytest

from repro.analysis import canonical_result_digest
from repro.arrowsim import FLOAT64, Field, INT64, Schema
from repro.arrowsim.dtypes import DATE32, STRING
from repro.bench import RunConfig
from repro.errors import AnalysisError, SqlError
from repro.rewrite import (
    RewriteContext,
    rewrite_statement,
)
from repro.rewrite.rules import (
    DEFAULT_RULES,
    CteInline,
    CteMaterialize,
    CteOrphanDrop,
    ExistsToSemiJoin,
    InSubqueryToSemiJoin,
    NotExistsToAntiJoin,
    NotInSubqueryToAntiJoin,
    OrToInList,
    ScalarMaterialize,
    TransitivePredicate,
)
from repro.sql.ast_nodes import InList, Literal
from repro.sql.parser import parse
from repro.workloads import TPCH_Q4

# --------------------------------------------------------------------------
# Synthetic catalog for rule-level tests
# --------------------------------------------------------------------------

ORDERS = Schema(
    [
        Field("orderkey", INT64, nullable=False),
        Field("custkey", INT64, nullable=False),
        Field("totalprice", FLOAT64, nullable=False),
        Field("orderdate", DATE32, nullable=False),
        Field("orderpriority", STRING, nullable=False),
    ]
)
LINEITEM = Schema(
    [
        Field("orderkey", INT64, nullable=False),
        Field("quantity", FLOAT64, nullable=False),
        Field("commitdate", DATE32, nullable=False),
        Field("receiptdate", DATE32, nullable=False),
        # Nullable on purpose: the NOT IN null-semantics guard must veto.
        Field("suppkey", INT64, nullable=True),
    ]
)
TABLES = {"orders": ORDERS, "lineitem": LINEITEM}


def _resolve(name):
    try:
        return TABLES[name.table]
    except KeyError:
        raise AnalysisError(f"no such table {name.table!r}") from None


CTX = RewriteContext(resolve=_resolve)


def _rewrite(sql, rules=None, **kwargs):
    return rewrite_statement(parse(sql), CTX, rules=rules, **kwargs)


# --------------------------------------------------------------------------
# EXISTS / NOT EXISTS
# --------------------------------------------------------------------------


class TestExistsRules:
    def test_correlated_exists_becomes_semi_join(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE EXISTS "
            "(SELECT 1 FROM lineitem WHERE lineitem.orderkey = orders.orderkey "
            "AND commitdate < receiptdate)",
            rules=[ExistsToSemiJoin()],
        )
        assert [f.rule for f in result.firings] == ["exists-to-semi-join"]
        stmt = result.statement
        assert stmt.where is None
        (join,) = stmt.joins
        assert join.kind == "semi"
        assert join.subquery is not None
        # Inner-only predicate stays in the derived table's WHERE.
        assert "commitdate < receiptdate" in join.subquery.to_sql()
        assert "SEMI JOIN" in stmt.to_sql()

    def test_uncorrelated_exists_declines(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE EXISTS "
            "(SELECT 1 FROM lineitem WHERE quantity > 10.0)",
            rules=[ExistsToSemiJoin()],
        )
        assert not result.changed

    def test_guard_rejects_aggregating_exists(self):
        stmt = parse(
            "SELECT COUNT(*) AS n FROM orders WHERE EXISTS "
            "(SELECT 1 FROM lineitem WHERE lineitem.orderkey = orders.orderkey "
            "GROUP BY orderkey)"
        )
        rule = ExistsToSemiJoin()
        site = next(rule.match(stmt, CTX))
        assert rule.guard(stmt, site, CTX) == "subquery aggregates"

    def test_not_exists_becomes_anti_join(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE NOT EXISTS "
            "(SELECT 1 FROM lineitem WHERE lineitem.orderkey = orders.orderkey)",
            rules=[NotExistsToAntiJoin()],
        )
        assert [f.rule for f in result.firings] == ["not-exists-to-anti-join"]
        (join,) = result.statement.joins
        assert join.kind == "anti"


# --------------------------------------------------------------------------
# IN / NOT IN (subquery)
# --------------------------------------------------------------------------


class TestInSubqueryRules:
    def test_in_subquery_becomes_semi_join(self):
        result = _rewrite(
            "SELECT orderkey FROM orders WHERE orderkey IN "
            "(SELECT orderkey FROM lineitem WHERE quantity > 30.0)",
            rules=[InSubqueryToSemiJoin()],
        )
        assert [f.rule for f in result.firings] == ["in-to-semi-join"]
        (join,) = result.statement.joins
        assert join.kind == "semi"

    def test_aggregating_in_subquery_is_allowed(self):
        result = _rewrite(
            "SELECT orderkey FROM orders WHERE orderkey IN "
            "(SELECT orderkey FROM lineitem GROUP BY orderkey "
            "HAVING SUM(quantity) > 100.0)",
            rules=[InSubqueryToSemiJoin()],
        )
        assert result.changed
        (join,) = result.statement.joins
        assert join.subquery is not None
        assert join.subquery.having is not None

    def test_guard_rejects_multi_column_subquery(self):
        stmt = parse(
            "SELECT orderkey FROM orders WHERE orderkey IN "
            "(SELECT orderkey, quantity FROM lineitem)"
        )
        rule = InSubqueryToSemiJoin()
        site = next(rule.match(stmt, CTX))
        assert rule.guard(stmt, site, CTX) == (
            "subquery must produce exactly one column"
        )

    def test_not_in_non_nullable_becomes_anti_join(self):
        result = _rewrite(
            "SELECT orderkey FROM orders WHERE orderkey NOT IN "
            "(SELECT orderkey FROM lineitem)",
            rules=[NotInSubqueryToAntiJoin()],
        )
        assert [f.rule for f in result.firings] == ["not-in-to-anti-join"]
        (join,) = result.statement.joins
        assert join.kind == "anti"

    def test_not_in_nullable_build_column_is_vetoed(self):
        # suppkey is nullable: one NULL in the build set turns NOT IN
        # into UNKNOWN for every probe row, while an anti join would
        # keep rows — the guard must refuse.
        stmt = parse(
            "SELECT orderkey FROM orders WHERE orderkey NOT IN "
            "(SELECT suppkey FROM lineitem)"
        )
        rule = NotInSubqueryToAntiJoin()
        site = next(rule.match(stmt, CTX))
        assert rule.guard(stmt, site, CTX) == (
            "NOT IN subquery column may produce NULL"
        )
        assert not _rewrite(stmt.to_sql(), rules=[NotInSubqueryToAntiJoin()]).changed

    def test_in_probe_must_be_plain_column(self):
        stmt = parse(
            "SELECT orderkey FROM orders WHERE orderkey + 1 IN "
            "(SELECT orderkey FROM lineitem)"
        )
        rule = InSubqueryToSemiJoin()
        site = next(rule.match(stmt, CTX))
        assert rule.guard(stmt, site, CTX) == "probe expression is not a plain column"


# --------------------------------------------------------------------------
# Scalar subquery materialization
# --------------------------------------------------------------------------


class TestScalarMaterialize:
    def test_uncorrelated_scalar_is_materialized(self):
        calls = []

        def scalar_value(sub):
            calls.append(sub)
            return Literal(42.0)

        ctx = RewriteContext(resolve=_resolve, scalar_value=scalar_value)
        result = rewrite_statement(
            parse(
                "SELECT COUNT(*) AS n FROM orders WHERE totalprice > "
                "(SELECT AVG(totalprice) AS a FROM orders)"
            ),
            ctx,
            rules=[ScalarMaterialize()],
        )
        assert [f.rule for f in result.firings] == ["scalar-materialize"]
        assert len(calls) == 1
        assert "42.0" in result.statement.to_sql()

    def test_no_evaluator_declines(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE totalprice > "
            "(SELECT AVG(totalprice) AS a FROM orders)",
            rules=[ScalarMaterialize()],
        )
        assert not result.changed

    def test_correlated_scalar_is_vetoed(self):
        ctx = RewriteContext(resolve=_resolve, scalar_value=lambda sub: Literal(0))
        stmt = parse(
            "SELECT COUNT(*) AS n FROM orders WHERE totalprice > "
            "(SELECT AVG(quantity) AS a FROM lineitem "
            "WHERE lineitem.orderkey = orders.orderkey)"
        )
        rule = ScalarMaterialize()
        node = next(rule.match(stmt, ctx))
        assert "correlated reference" in rule.guard(stmt, node, ctx)


# --------------------------------------------------------------------------
# CTE handling
# --------------------------------------------------------------------------


class TestCteRules:
    def test_orphan_cte_is_dropped(self):
        result = _rewrite(
            "WITH dead AS (SELECT orderkey FROM lineitem) "
            "SELECT COUNT(*) AS n FROM orders",
            rules=[CteOrphanDrop()],
        )
        assert [f.rule for f in result.firings] == ["cte-orphan-drop"]
        assert result.statement.ctes == ()

    def test_single_use_simple_cte_inlines(self):
        result = _rewrite(
            "WITH cheap AS (SELECT orderkey, totalprice FROM orders "
            "WHERE totalprice < 1000.0) "
            "SELECT orderkey FROM cheap WHERE orderkey > 10",
            rules=[CteInline()],
        )
        assert [f.rule for f in result.firings] == ["cte-inline"]
        stmt = result.statement
        assert stmt.ctes == ()
        assert stmt.from_table.table == "orders"
        # Body WHERE merged with outer WHERE.
        assert "totalprice < 1000.0" in stmt.where.to_sql()
        assert "orderkey > 10" in stmt.where.to_sql()

    def test_aggregating_cte_is_materialized_not_inlined(self):
        result = _rewrite(
            "WITH big AS (SELECT orderkey FROM lineitem GROUP BY orderkey "
            "HAVING SUM(quantity) > 100.0) "
            "SELECT orderkey FROM big",
            rules=[CteInline(), CteMaterialize()],
        )
        assert [f.rule for f in result.firings] == ["cte-materialize"]
        (cte,) = result.statement.ctes
        assert cte.materialized

    def test_materialize_vetoes_body_reading_another_cte(self):
        stmt = parse(
            "WITH a AS (SELECT orderkey FROM lineitem GROUP BY orderkey), "
            "b AS (SELECT orderkey FROM a GROUP BY orderkey) "
            "SELECT orderkey FROM b"
        )
        rule = CteMaterialize()
        vetoes = {
            cte.name: rule.guard(stmt, cte, CTX) for cte in rule.match(stmt, CTX)
        }
        assert vetoes["b"] == "body references a CTE"
        assert vetoes["a"] is None


# --------------------------------------------------------------------------
# OR -> IN normalization
# --------------------------------------------------------------------------


class TestOrToInList:
    def test_or_chain_collapses_to_in_list(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE "
            "orderpriority = '1-URGENT' OR orderpriority = '2-HIGH' "
            "OR orderpriority = '3-MEDIUM'",
            rules=[OrToInList()],
        )
        assert [f.rule for f in result.firings] == ["or-to-in-list"]
        conj = result.statement.where
        assert isinstance(conj, InList)
        assert len(conj.items) == 3

    def test_mixed_columns_decline(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE "
            "orderkey = 1 OR custkey = 2",
            rules=[OrToInList()],
        )
        assert not result.changed

    def test_null_literal_is_vetoed(self):
        stmt = parse(
            "SELECT COUNT(*) AS n FROM orders WHERE "
            "orderkey = 1 OR orderkey = NULL"
        )
        rule = OrToInList()
        sites = list(rule.match(stmt, CTX))
        if sites:  # the parser may accept = NULL; the guard must refuse it
            assert rule.guard(stmt, sites[0], CTX) == "NULL literal in OR chain"


# --------------------------------------------------------------------------
# Transitive predicate derivation
# --------------------------------------------------------------------------


class TestTransitivePredicate:
    def test_inner_join_derives_probe_to_build(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders "
            "JOIN lineitem ON orders.orderkey = lineitem.orderkey "
            "WHERE orders.orderkey < 100",
            rules=[TransitivePredicate()],
        )
        assert result.changed
        assert "lineitem.orderkey < 100" in result.statement.where.to_sql()

    def test_left_join_is_skipped(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders "
            "LEFT OUTER JOIN lineitem ON orders.orderkey = lineitem.orderkey "
            "WHERE orders.orderkey < 100",
            rules=[TransitivePredicate()],
        )
        assert not result.changed

    def test_semi_join_subquery_receives_derived_predicate(self):
        # Full catalog: EXISTS lowers to a semi join first, then the
        # probe-side key predicate rides into the derived build side.
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE orderkey < 100 AND EXISTS "
            "(SELECT 1 FROM lineitem WHERE lineitem.orderkey = orders.orderkey)"
        )
        rules = [f.rule for f in result.firings]
        assert "exists-to-semi-join" in rules
        assert "transitive-predicate" in rules
        (join,) = result.statement.joins
        assert join.subquery is not None
        assert "orderkey < 100" in join.subquery.where.to_sql()

    def test_non_constant_predicate_declines(self):
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders "
            "JOIN lineitem ON orders.orderkey = lineitem.orderkey "
            "WHERE orders.orderkey < orders.custkey",
            rules=[TransitivePredicate()],
        )
        assert not result.changed


# --------------------------------------------------------------------------
# Engine: fixpoint, idempotence, budget
# --------------------------------------------------------------------------


class TestEngine:
    COMPOUND = (
        "WITH dead AS (SELECT orderkey FROM lineitem) "
        "SELECT COUNT(*) AS n FROM orders WHERE orderkey < 500 AND EXISTS "
        "(SELECT 1 FROM lineitem WHERE lineitem.orderkey = orders.orderkey) "
        "AND (orderpriority = '1-URGENT' OR orderpriority = '2-HIGH')"
    )

    def test_fixpoint_is_idempotent(self):
        first = _rewrite(self.COMPOUND)
        assert first.changed
        assert not first.budget_exhausted
        again = rewrite_statement(first.statement, CTX)
        assert not again.changed
        assert again.statement == first.statement

    def test_budget_bounds_applications(self):
        result = _rewrite(self.COMPOUND, budget=1)
        assert result.budget_exhausted
        assert len(result.firings) == 1
        # A partially rewritten statement is still a valid query AST.
        assert result.statement.to_sql()

    def test_firings_are_deterministic(self):
        a = _rewrite(self.COMPOUND)
        b = _rewrite(self.COMPOUND)
        assert [(f.rule, f.detail) for f in a.firings] == [
            (f.rule, f.detail) for f in b.firings
        ]
        assert a.statement.to_sql() == b.statement.to_sql()

    def test_unknown_table_declines_cleanly(self):
        # Resolution failures inside match/guard must not escape: the
        # analyzer owns the real diagnostic.
        result = _rewrite(
            "SELECT COUNT(*) AS n FROM orders WHERE EXISTS "
            "(SELECT 1 FROM nosuch WHERE nosuch.orderkey = orders.orderkey)"
        )
        assert not result.changed


# --------------------------------------------------------------------------
# End to end: parity, replay, EXPLAIN (Q4 / Q18 rows are refereed by SQLite
# in every mode: tests/test_sqlite_referee.py)
# --------------------------------------------------------------------------

FULL = RunConfig.ocs("full", "filter", "project", "aggregate")


class TestEndToEnd:
    def test_rewrite_off_parity_on_subquery_free_query(self, small_env):
        sql = (
            "SELECT orderpriority, COUNT(*) AS n FROM orders "
            "WHERE totalprice < 10000.0 GROUP BY orderpriority "
            "ORDER BY orderpriority"
        )
        on = small_env.run(sql, FULL, schema="tpch")
        off_config = RunConfig.ocs("off", "filter", "project", "aggregate")
        off_config = RunConfig(
            label="off", mode="ocs", policy=off_config.policy, rewrite=False
        )
        off = small_env.run(sql, off_config, schema="tpch")
        assert canonical_result_digest(on.batch) == canonical_result_digest(
            off.batch
        )

    def test_rewrite_off_subquery_fails_in_analyzer(self, small_env):
        config = RunConfig(
            label="off", mode="ocs", policy=FULL.policy, rewrite=False
        )
        with pytest.raises(SqlError, match="rewriter"):
            small_env.run(TPCH_Q4, config, schema="tpch")

    def test_seeded_replay_is_byte_identical(self, small_env):
        first = small_env.run(TPCH_Q4, FULL, schema="tpch")
        second = small_env.run(TPCH_Q4, FULL, schema="tpch")
        assert canonical_result_digest(first.batch) == canonical_result_digest(
            second.batch
        )
        assert first.execution_seconds == second.execution_seconds
        assert first.data_moved_bytes == second.data_moved_bytes

    def test_explain_renders_rewrite_section(self, small_env):
        text = small_env.explain(TPCH_Q4, FULL, schema="tpch")
        assert "Rewrite (rules fired):" in text
        assert "exists-to-semi-join" in text
        assert "Join[semi" in text

    def test_explain_omits_rewrite_section_when_nothing_fires(self, small_env):
        text = small_env.explain(
            "SELECT COUNT(*) AS n FROM orders", FULL, schema="tpch"
        )
        assert "Rewrite" not in text
