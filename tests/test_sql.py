"""Unit + property tests for the SQL lexer, parser, and analyzer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrowsim import DATE32, FLOAT64, Field, INT64, STRING, Schema
from repro.arrowsim.dtypes import BOOL
from repro.errors import AnalysisError, LexError, ParseError
from repro.sql import analyze, ast, parse, tokenize
from repro.sql.lexer import TokenKind
from repro.sql.parser import MAX_EXPRESSION_DEPTH, parse_expression


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.kind == TokenKind.KEYWORD and t.text == "SELECT" for t in tokens[:3])

    def test_identifiers_lowercased(self):
        assert tokenize("FooBar")[0].text == "foobar"

    def test_quoted_identifier_keeps_case(self):
        token = tokenize('"FooBar"')[0]
        assert token.kind == TokenKind.IDENT
        assert token.text == "FooBar"

    def test_numbers(self):
        kinds = [t.kind for t in tokenize("1 2.5 .5 1e3 7")][:-1]
        assert kinds == [
            TokenKind.INTEGER,
            TokenKind.FLOAT,
            TokenKind.FLOAT,
            TokenKind.FLOAT,
            TokenKind.INTEGER,
        ]

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_operators(self):
        texts = [t.text for t in tokenize("a <= b <> c >= d != e")]
        assert "<=" in texts and "<>" in texts and ">=" in texts and "!=" in texts

    def test_comments_skipped(self):
        tokens = tokenize("a -- comment\n b")
        assert [t.text for t in tokens[:2]] == ["a", "b"]

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a ? b")


class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t WHERE a > 5 LIMIT 10")
        assert len(stmt.select_items) == 2
        assert stmt.from_table.table == "t"
        assert stmt.limit == 10

    def test_qualified_table(self):
        stmt = parse("SELECT a FROM ocs.hpc.laghos")
        assert stmt.from_table == ast.TableName(catalog="ocs", schema="hpc", table="laghos")

    def test_group_order(self):
        stmt = parse(
            "SELECT g, sum(v) AS total FROM t GROUP BY g ORDER BY total DESC, g LIMIT 3"
        )
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE x BETWEEN 0.8 AND 3.2")
        assert isinstance(stmt.where, ast.Between)

    def test_not_between(self):
        stmt = parse("SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2")
        assert stmt.where.negated

    def test_in_list(self):
        stmt = parse("SELECT a FROM t WHERE g IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.items) == 3

    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == ast.BinaryOp(
            "+", ast.Literal(1), ast.BinaryOp("*", ast.Literal(2), ast.Literal(3))
        )

    def test_and_or_precedence(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "OR"

    def test_date_interval(self):
        expr = parse_expression("DATE '1998-12-01' - INTERVAL '90' DAY")
        assert expr == ast.BinaryOp(
            "-", ast.DateLiteral("1998-12-01"), ast.IntervalLiteral(90, "DAY")
        )

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert expr == ast.FunctionCall("count", (ast.Star(),))

    def test_cast(self):
        expr = parse_expression("CAST(x AS double)")
        assert expr == ast.Cast(ast.ColumnRef("x"), "float64")

    def test_is_null(self):
        assert parse_expression("x IS NULL") == ast.IsNull(ast.ColumnRef("x"))
        assert parse_expression("x IS NOT NULL") == ast.IsNull(
            ast.ColumnRef("x"), negated=True
        )

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT FROM t")
        with pytest.raises(ParseError):
            parse("SELECT a t")  # alias then junk token
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t LIMIT 1 extra")

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 110 + "a > 1" + ")" * 110,
            "(" * 10_000 + "a > 1" + ")" * 10_000,
            "NOT " * 1000 + "a > 1",
            "- " * 1000 + "a",
            "sum(" + " + ".join(["q"] * 400) + ")",
            " OR ".join(["a = 1"] * 400),
            "f(" * 70 + "a" + ")" * 70,
            "a IN (SELECT b FROM t WHERE " * 70 + "c > 1" + ")" * 70,
            # Tall through a subquery: neither tree alone is over the ceiling.
            "- " * 40 + "(SELECT " + "- " * 40 + "b FROM t)",
        ],
        ids=["parens", "parens-10k", "nots", "negations", "sum-chain", "or-chain",
             "calls", "subqueries", "through-subquery"],
    )
    def test_expression_over_the_depth_ceiling_is_a_parse_error(self, expr):
        # RecursionError before: 109 parentheses were the deepest that parsed,
        # and a 400-term chain parsed but overflowed the stack in the engine.
        with pytest.raises(ParseError, match=f"deeper than {MAX_EXPRESSION_DEPTH}"):
            parse(f"SELECT x FROM t WHERE {expr}")

    def test_expression_at_the_depth_ceiling_parses(self):
        n = MAX_EXPRESSION_DEPTH
        nested = parse_expression("(" * n + "a > 1" + ")" * n)
        assert nested == parse_expression("a > 1")
        chain = parse_expression(" + ".join(["q"] * n))  # n - 1 operators over a leaf
        assert chain.to_sql().count("+") == n - 1
        parse_expression("NOT " * (n - 2) + "a > 1")

    def test_prefix_chains_fold_inside_out(self):
        assert parse_expression("- - + - 3") == ast.UnaryOp(
            "-", ast.UnaryOp("-", ast.UnaryOp("-", ast.Literal(3)))
        )
        exists = parse_expression("EXISTS (SELECT a FROM t)")
        assert parse_expression("NOT NOT EXISTS (SELECT a FROM t)") == exists
        assert parse_expression("NOT NOT NOT EXISTS (SELECT a FROM t)") == ast.ExistsExpr(
            exists.subquery, negated=True
        )

    def test_tpch_q1_parses(self):
        stmt = parse(
            """
            SELECT returnflag, linestatus, SUM(quantity) AS sum_qty,
                   SUM(extendedprice * (1 - discount)) AS sum_disc_price,
                   AVG(quantity) AS avg_qty, COUNT(*) AS count_order
            FROM lineitem
            WHERE shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
            GROUP BY returnflag, linestatus
            ORDER BY returnflag, linestatus
            """
        )
        assert len(stmt.group_by) == 2
        assert len(stmt.order_by) == 2

    def test_print_parse_fixpoint(self):
        queries = [
            "SELECT a, b AS bee FROM t WHERE (a > 1 AND b < 2) OR NOT (a = 5)",
            "SELECT min(x) AS m FROM s.t GROUP BY g HAVING min(x) > 3 ORDER BY m DESC LIMIT 7",
            "SELECT count(*) FROM t WHERE s IN ('a', 'b') AND d BETWEEN 1 AND 9",
            "SELECT DISTINCT a FROM t ORDER BY a ASC",
        ]
        for q in queries:
            stmt = parse(q)
            assert parse(stmt.to_sql()) == stmt


# -- expression generator for the fixpoint property ------------------------

_names = st.sampled_from(["a", "b", "c", "xval"])
_literals = st.one_of(
    # SQL has no negative literals: "-1" parses as unary minus applied to 1.
    st.integers(0, 1000).map(ast.Literal),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=32).map(
        lambda f: ast.Literal(float(f))
    ),
    st.text(alphabet="abc ", max_size=5).map(ast.Literal),
    st.booleans().map(ast.Literal),
)
_leaf = st.one_of(_literals, _names.map(ast.ColumnRef))


def _exprs(depth=3):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "=", "<", ">=", "AND", "OR"]), sub, sub).map(
            lambda t: ast.BinaryOp(*t)
        ),
        st.tuples(sub, sub, sub).map(lambda t: ast.Between(*t)),
        sub.map(lambda e: ast.UnaryOp("NOT", e)),
        sub.map(lambda e: ast.IsNull(e)),
        st.tuples(st.sampled_from(["min", "max", "sum"]), sub).map(
            lambda t: ast.FunctionCall(t[0], (t[1],))
        ),
    )


class TestPrintParseFixpoint:
    @given(_exprs())
    @settings(max_examples=120, deadline=None)
    def test_expression_fixpoint(self, expr):
        assert parse_expression(expr.to_sql()) == expr


SCHEMA = Schema(
    [
        Field("id", INT64, nullable=False),
        Field("x", FLOAT64),
        Field("y", FLOAT64),
        Field("grp", INT64),
        Field("tag", STRING),
        Field("day", DATE32),
    ]
)


class TestAnalyzer:
    def test_scalar_query(self):
        q = analyze(parse("SELECT id, x + y AS s FROM t WHERE x > 0.5"), SCHEMA)
        assert not q.is_aggregate
        assert [n for n, _ in q.output_items] == ["id", "s"]
        assert q.where is not None and q.where.dtype is BOOL
        assert q.required_columns == ["id", "x", "y"]

    def test_star_expansion(self):
        q = analyze(parse("SELECT * FROM t"), SCHEMA)
        assert [n for n, _ in q.output_items] == SCHEMA.names()

    def test_aggregate_query_structure(self):
        q = analyze(
            parse(
                "SELECT grp, min(x) AS mn, avg(y) FROM t WHERE x > 0 "
                "GROUP BY grp ORDER BY mn LIMIT 5"
            ),
            SCHEMA,
        )
        assert q.is_aggregate
        assert [k for k, _ in q.group_keys] == ["grp"]
        assert [c.spec.func for c in q.aggregates] == ["min", "avg"]
        assert q.limit == 5
        assert q.sort_keys == [("mn", False)]
        assert q.required_columns == ["x", "y", "grp"]

    def test_duplicate_aggregate_reused(self):
        q = analyze(parse("SELECT min(x), min(x) + 0.0 FROM t"), SCHEMA)
        assert len(q.aggregates) == 1

    def test_count_star(self):
        q = analyze(parse("SELECT count(*) FROM t"), SCHEMA)
        assert q.aggregates[0].spec.arg is None
        assert q.aggregates[0].spec.output_dtype is INT64

    def test_expression_group_key(self):
        q = analyze(parse("SELECT grp % 10, count(*) FROM t GROUP BY grp % 10"), SCHEMA)
        assert q.group_keys[0][0] == "$key0"

    def test_non_grouped_column_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT x, count(*) FROM t GROUP BY grp"), SCHEMA)

    def test_unknown_column_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT nope FROM t"), SCHEMA)

    def test_where_must_be_boolean(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT id FROM t WHERE x + 1"), SCHEMA)

    def test_aggregate_in_where_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT id FROM t WHERE min(x) > 1"), SCHEMA)

    def test_sum_of_string_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT sum(tag) FROM t"), SCHEMA)

    def test_having(self):
        q = analyze(
            parse("SELECT grp FROM t GROUP BY grp HAVING count(*) > 2"), SCHEMA
        )
        assert q.having is not None
        assert len(q.aggregates) == 1  # the HAVING count(*) registers

    def test_date_interval_comparison(self):
        q = analyze(
            parse("SELECT id FROM t WHERE day <= DATE '1998-12-01' - INTERVAL '90' DAY"),
            SCHEMA,
        )
        assert q.where is not None

    def test_date_vs_string_literal(self):
        q = analyze(parse("SELECT id FROM t WHERE day = '2020-01-05'"), SCHEMA)
        assert q.where is not None

    def test_incomparable_types_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(parse("SELECT id FROM t WHERE tag > 5"), SCHEMA)

    def test_order_by_hidden_column(self):
        q = analyze(parse("SELECT id FROM t ORDER BY x DESC"), SCHEMA)
        assert q.sort_keys == [("$sort0", True)]
        assert q.hidden_outputs == ["$sort0"]

    def test_order_by_reuses_matching_output(self):
        q = analyze(parse("SELECT x FROM t ORDER BY x"), SCHEMA)
        assert q.sort_keys == [("x", False)]
        assert not q.hidden_outputs

    def test_order_by_aggregate_not_in_select(self):
        q = analyze(parse("SELECT grp FROM t GROUP BY grp ORDER BY max(y)"), SCHEMA)
        assert len(q.aggregates) == 1
        assert q.sort_keys[0][0] == "$sort0"

    def test_between_desugars(self):
        q = analyze(parse("SELECT id FROM t WHERE x BETWEEN 1 AND 2"), SCHEMA)
        from repro.exec.expressions import AndExpr

        assert isinstance(q.where, AndExpr)
        assert len(q.where.operands) == 2

    def test_and_flattening(self):
        q = analyze(parse("SELECT id FROM t WHERE x > 0 AND y > 0 AND id > 0"), SCHEMA)
        from repro.exec.expressions import AndExpr

        assert isinstance(q.where, AndExpr)
        assert len(q.where.operands) == 3
