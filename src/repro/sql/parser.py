"""Recursive-descent parser for SELECT statements.

Grammar (precedence low to high)::

    select    := [WITH ident AS ( select ) (, ident AS ( select ))*]
                 SELECT [DISTINCT] item (, item)* FROM qualified
                 (join)* [WHERE expr] [GROUP BY expr (, expr)*] [HAVING expr]
                 [ORDER BY order (, order)*] [LIMIT int]
    join      := (JOIN | INNER JOIN | LEFT [OUTER] JOIN) qualified ON expr
    expr      := or
    or        := and (OR and)*
    and       := not (AND not)*
    not       := NOT not | predicate
    predicate := additive ([NOT] BETWEEN additive AND additive
                          | [NOT] IN ( expr (, expr)* )
                          | [NOT] IN ( select )
                          | IS [NOT] NULL
                          | cmp-op additive)?
    additive  := multiplicative ((+|-) multiplicative)*
    mult      := unary ((*|/|%) unary)*
    unary     := - unary | primary
    primary   := literal | DATE str | INTERVAL str unit | CAST ( expr AS ident )
               | func ( [DISTINCT] args ) | [NOT] EXISTS ( select )
               | ident | ( expr ) | ( select ) | *
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import Token, TokenKind, tokenize

__all__ = ["Parser", "parse", "parse_expression", "MAX_EXPRESSION_DEPTH"]

#: Deepest expression accepted, two ways against the one number: how deep
#: ``( expr )`` / argument / subquery nesting may recurse here, and how tall
#: the finished tree may be (prefix chains and the left-deep trees of the
#: operator loops included, through subqueries).  Every later stage walks
#: the tree recursively; 109 parentheses and ~300 chained terms were the
#: measured limits of the interpreter's stack.
MAX_EXPRESSION_DEPTH = 64
_TOO_DEEP = f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels"

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_TYPE_NAMES = {
    "bool", "boolean", "int32", "integer", "int64", "bigint",
    "float32", "real", "float64", "double", "string", "varchar", "date32", "date",
}


class Parser:
    """Token-stream cursor with one-token lookahead."""

    def __init__(self, text: str) -> None:
        self.tokens: List[Token] = tokenize(text)
        self.pos = 0
        #: Enclosing ``_expression`` calls on the Python stack right now.
        self._nesting = 0

    # -- cursor helpers -------------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        return self._peek().matches(kind, text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if not token.matches(kind, text):
            want = text or kind
            raise ParseError(
                f"expected {want}, found {token.text or 'end of input'!r}",
                position=token.position,
            )
        return self._advance()

    def _keyword(self, word: str) -> bool:
        return self._accept(TokenKind.KEYWORD, word) is not None

    # -- entry points -------------------------------------------------------------

    def parse_statement(self) -> ast.SelectStatement:
        stmt = self._select()
        self._expect(TokenKind.EOF)
        return stmt

    def parse_expression_only(self) -> ast.Expression:
        expr = self._expression()
        self._expect(TokenKind.EOF)
        return expr

    # -- statement -------------------------------------------------------------------

    def _select(self) -> ast.SelectStatement:
        ctes: List[ast.CommonTableExpr] = []
        if self._keyword("WITH"):
            ctes.append(self._cte())
            while self._accept(TokenKind.PUNCT, ","):
                ctes.append(self._cte())
        self._expect(TokenKind.KEYWORD, "SELECT")
        distinct = self._keyword("DISTINCT")
        items = [self._select_item()]
        while self._accept(TokenKind.PUNCT, ","):
            items.append(self._select_item())
        self._expect(TokenKind.KEYWORD, "FROM")
        table = self._table_name()
        joins: List[ast.JoinClause] = []
        while True:
            join = self._join_clause()
            if join is None:
                break
            joins.append(join)
        where = self._expression() if self._keyword("WHERE") else None
        group_by: List[ast.Expression] = []
        if self._keyword("GROUP"):
            self._expect(TokenKind.KEYWORD, "BY")
            group_by.append(self._expression())
            while self._accept(TokenKind.PUNCT, ","):
                group_by.append(self._expression())
        having = self._expression() if self._keyword("HAVING") else None
        order_by: List[ast.OrderItem] = []
        if self._keyword("ORDER"):
            self._expect(TokenKind.KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(TokenKind.PUNCT, ","):
                order_by.append(self._order_item())
        limit = None
        if self._keyword("LIMIT"):
            token = self._expect(TokenKind.INTEGER)
            limit = int(token.text)
        return ast.SelectStatement(
            select_items=tuple(items),
            from_table=table,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
            joins=tuple(joins),
            ctes=tuple(ctes),
        )

    def _cte(self) -> ast.CommonTableExpr:
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.KEYWORD, "AS")
        self._expect(TokenKind.PUNCT, "(")
        query = self._select()
        self._expect(TokenKind.PUNCT, ")")
        return ast.CommonTableExpr(name=name, query=query)

    def _join_clause(self) -> Optional[ast.JoinClause]:
        if self._keyword("INNER"):
            self._expect(TokenKind.KEYWORD, "JOIN")
            kind = "inner"
        elif self._keyword("LEFT"):
            self._keyword("OUTER")
            self._expect(TokenKind.KEYWORD, "JOIN")
            kind = "left"
        elif self._keyword("JOIN"):
            kind = "inner"
        else:
            return None
        table = self._table_name()
        self._expect(TokenKind.KEYWORD, "ON")
        condition = self._expression()
        return ast.JoinClause(kind=kind, table=table, condition=condition)

    def _select_item(self) -> ast.SelectItem:
        expr = self._expression()
        alias = None
        if self._keyword("AS"):
            alias = self._expect(TokenKind.IDENT).text
        elif self._check(TokenKind.IDENT):
            alias = self._advance().text
        return ast.SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        descending = False
        if self._keyword("DESC"):
            descending = True
        else:
            self._keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _table_name(self) -> ast.TableName:
        parts = [self._expect(TokenKind.IDENT).text]
        while self._accept(TokenKind.PUNCT, "."):
            parts.append(self._expect(TokenKind.IDENT).text)
        if len(parts) == 1:
            return ast.TableName(table=parts[0])
        if len(parts) == 2:
            return ast.TableName(schema=parts[0], table=parts[1])
        if len(parts) == 3:
            return ast.TableName(catalog=parts[0], schema=parts[1], table=parts[2])
        raise ParseError(
            f"table name has too many parts: {'.'.join(parts)}",
            position=self._peek().position,
        )

    # -- expressions -------------------------------------------------------------------

    def _expression(self) -> ast.Expression:
        start = self._peek().position
        if self._nesting > MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, position=start)
        self._nesting += 1
        expr = self._or()
        self._nesting -= 1
        if self._nesting == 0:
            _check_height(expr, start)
        return expr

    def _or(self) -> ast.Expression:
        left = self._and()
        while self._keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and())
        return left

    def _and(self) -> ast.Expression:
        left = self._not()
        while self._keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not())
        return left

    def _not(self) -> ast.Expression:
        # Prefix chains are counted, then wrapped inside out: a loop, so a
        # thousand NOTs cost a thousand nodes, not a thousand stack frames.
        nots = 0
        while self._keyword("NOT"):
            nots += 1
        expr = self._predicate()
        for _ in range(nots):
            # Keep [NOT] EXISTS canonical: the negation lives on the node
            # itself so rewrite rules match one shape, not two.
            if isinstance(expr, ast.ExistsExpr):
                expr = ast.ExistsExpr(expr.subquery, negated=not expr.negated)
            else:
                expr = ast.UnaryOp("NOT", expr)
        return expr

    def _predicate(self) -> ast.Expression:
        left = self._additive()
        negated = self._keyword("NOT")
        if self._keyword("BETWEEN"):
            low = self._additive()
            self._expect(TokenKind.KEYWORD, "AND")
            high = self._additive()
            return ast.Between(left, low, high, negated=negated)
        if self._keyword("IN"):
            self._expect(TokenKind.PUNCT, "(")
            if self._check(TokenKind.KEYWORD, "SELECT") or self._check(
                TokenKind.KEYWORD, "WITH"
            ):
                subquery = self._select()
                self._expect(TokenKind.PUNCT, ")")
                return ast.InSubquery(left, subquery, negated=negated)
            items = [self._expression()]
            while self._accept(TokenKind.PUNCT, ","):
                items.append(self._expression())
            self._expect(TokenKind.PUNCT, ")")
            return ast.InList(left, tuple(items), negated=negated)
        if negated:
            token = self._peek()
            raise ParseError(
                "NOT must be followed by BETWEEN or IN here", position=token.position
            )
        if self._keyword("IS"):
            is_not = self._keyword("NOT")
            self._expect(TokenKind.KEYWORD, "NULL")
            return ast.IsNull(left, negated=is_not)
        token = self._peek()
        if token.kind == TokenKind.OPERATOR and token.text in _COMPARISONS:
            op = self._advance().text
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._additive())
        return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == TokenKind.OPERATOR and token.text in ("+", "-"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == TokenKind.OPERATOR and token.text in ("*", "/", "%"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expression:
        negations = 0
        while True:
            if self._accept(TokenKind.OPERATOR, "-"):
                negations += 1
            elif not self._accept(TokenKind.OPERATOR, "+"):
                break
        expr = self._primary()
        for _ in range(negations):
            expr = ast.UnaryOp("-", expr)
        return expr

    def _primary(self) -> ast.Expression:
        token = self._peek()

        if token.kind == TokenKind.INTEGER:
            self._advance()
            return ast.Literal(int(token.text))
        if token.kind == TokenKind.FLOAT:
            self._advance()
            return ast.Literal(float(token.text))
        if token.kind == TokenKind.STRING:
            self._advance()
            return ast.Literal(token.text)

        if token.kind == TokenKind.KEYWORD:
            word = token.text.upper()
            if word == "NULL":
                self._advance()
                return ast.Literal(None)
            if word in ("TRUE", "FALSE"):
                self._advance()
                return ast.Literal(word == "TRUE")
            if word == "DATE":
                self._advance()
                iso = self._expect(TokenKind.STRING).text
                return ast.DateLiteral(iso)
            if word == "INTERVAL":
                self._advance()
                amount_text = self._expect(TokenKind.STRING).text
                try:
                    amount = int(amount_text)
                except ValueError:
                    raise ParseError(
                        f"interval amount must be an integer, got {amount_text!r}",
                        position=token.position,
                    ) from None
                unit_token = self._peek()
                if unit_token.kind == TokenKind.KEYWORD and unit_token.text in (
                    "DAY", "MONTH", "YEAR",
                ):
                    self._advance()
                    return ast.IntervalLiteral(amount, unit_token.text)
                raise ParseError(
                    "expected DAY, MONTH or YEAR after INTERVAL",
                    position=unit_token.position,
                )
            if word == "CAST":
                self._advance()
                self._expect(TokenKind.PUNCT, "(")
                expr = self._expression()
                self._expect(TokenKind.KEYWORD, "AS")
                type_token = self._advance()
                type_name = type_token.text.lower()
                if type_name not in _TYPE_NAMES:
                    raise ParseError(
                        f"unknown type {type_token.text!r} in CAST",
                        position=type_token.position,
                    )
                self._expect(TokenKind.PUNCT, ")")
                return ast.Cast(expr, _canonical_type(type_name))
            if word == "EXISTS":
                self._advance()
                self._expect(TokenKind.PUNCT, "(")
                subquery = self._select()
                self._expect(TokenKind.PUNCT, ")")
                return ast.ExistsExpr(subquery)
            if word in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                self._advance()
                return self._function_call(word.lower())
            if word in ("DAY", "MONTH", "YEAR"):
                # Contextual keywords: valid column names outside INTERVAL.
                self._advance()
                return ast.ColumnRef(word.lower())

        if token.kind == TokenKind.IDENT:
            self._advance()
            if self._check(TokenKind.PUNCT, "("):
                return self._function_call(token.text)
            if self._check(TokenKind.PUNCT, "."):
                self._advance()
                column = self._expect(TokenKind.IDENT)
                return ast.ColumnRef(column.text, qualifier=token.text)
            return ast.ColumnRef(token.text)

        if token.matches(TokenKind.PUNCT, "("):
            self._advance()
            if self._check(TokenKind.KEYWORD, "SELECT") or self._check(
                TokenKind.KEYWORD, "WITH"
            ):
                subquery = self._select()
                self._expect(TokenKind.PUNCT, ")")
                return ast.ScalarSubquery(subquery)
            expr = self._expression()
            self._expect(TokenKind.PUNCT, ")")
            return expr

        if token.matches(TokenKind.OPERATOR, "*"):
            self._advance()
            return ast.Star()

        raise ParseError(
            f"unexpected token {token.text or 'end of input'!r}",
            position=token.position,
        )

    def _function_call(self, name: str) -> ast.FunctionCall:
        self._expect(TokenKind.PUNCT, "(")
        distinct = self._keyword("DISTINCT")
        args: List[ast.Expression] = []
        if not self._check(TokenKind.PUNCT, ")"):
            args.append(self._expression())
            while self._accept(TokenKind.PUNCT, ","):
                args.append(self._expression())
        self._expect(TokenKind.PUNCT, ")")
        return ast.FunctionCall(name=name, args=tuple(args), distinct=distinct)


def _check_height(root: ast.Expression, position: int) -> None:
    """Refuse a tree taller than the ceiling, counting through subqueries
    (their clause containers add no level).  Iterative on purpose: the tree
    being measured may be ten thousand levels tall."""
    stack: List[tuple] = [(root, 1)]
    while stack:
        node, height = stack.pop()
        if height > MAX_EXPRESSION_DEPTH:
            raise ParseError(_TOO_DEEP, position=position)
        below = height + isinstance(node, ast.Expression)
        for child in ast.children(node):
            stack.append((child, below))


def _canonical_type(name: str) -> str:
    aliases = {
        "boolean": "bool",
        "integer": "int32",
        "bigint": "int64",
        "real": "float32",
        "double": "float64",
        "varchar": "string",
        "date": "date32",
    }
    return aliases.get(name, name)


def parse(text: str) -> ast.SelectStatement:
    """Parse one SELECT statement."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used in tests and the connector)."""
    return Parser(text).parse_expression_only()
