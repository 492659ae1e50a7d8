"""SQL lexer: source text -> token stream."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import LexError

__all__ = [
    "Token", "TokenKind", "Lexer", "tokenize", "normalize_whitespace", "KEYWORDS",
]


class TokenKind:
    """Token categories (plain string constants keep Token lightweight)."""

    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


KEYWORDS = frozenset(
    """
    SELECT DISTINCT AS FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT
    AND OR NOT BETWEEN IN IS NULL TRUE FALSE LIKE
    CAST DATE INTERVAL DAY MONTH YEAR
    COUNT SUM AVG MIN MAX
    JOIN INNER LEFT OUTER ON
    WITH EXISTS
    """.split()
)

_OPERATORS = (
    "<>", "<=", ">=", "!=", "||",
    "=", "<", ">", "+", "-", "*", "/", "%",
)
_PUNCT = "(),."


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int

    def matches(self, kind: str, text: str | None = None) -> bool:
        if self.kind != kind:
            return False
        if text is None:
            return True
        if kind == TokenKind.KEYWORD:
            return self.text.upper() == text.upper()
        return self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind}({self.text!r}@{self.position})"


class Lexer:
    """Single-pass scanner producing :class:`Token` objects."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def tokens(self) -> Iterator[Token]:
        text = self.text
        n = len(text)
        while True:
            while self.pos < n and text[self.pos].isspace():
                self.pos += 1
            # Line comments.
            if text.startswith("--", self.pos):
                end = text.find("\n", self.pos)
                self.pos = n if end < 0 else end + 1
                continue
            if self.pos >= n:
                yield Token(TokenKind.EOF, "", self.pos)
                return
            start = self.pos
            ch = text[self.pos]

            if ch == "'":
                yield self._string(start)
                continue
            if ch.isdigit() or (ch == "." and self.pos + 1 < n and text[self.pos + 1].isdigit()):
                yield self._number(start)
                continue
            if ch.isalpha() or ch == "_" or ch == '"':
                yield self._identifier(start)
                continue
            matched = False
            for op in _OPERATORS:
                if text.startswith(op, self.pos):
                    self.pos += len(op)
                    yield Token(TokenKind.OPERATOR, op, start)
                    matched = True
                    break
            if matched:
                continue
            if ch in _PUNCT:
                self.pos += 1
                yield Token(TokenKind.PUNCT, ch, start)
                continue
            raise LexError(f"unexpected character {ch!r}", position=start)

    # -- scanners ------------------------------------------------------------

    def _string(self, start: int) -> Token:
        text = self.text
        pos = start + 1
        out = []
        while pos < len(text):
            if text[pos] == "'":
                if pos + 1 < len(text) and text[pos + 1] == "'":
                    out.append("'")
                    pos += 2
                    continue
                self.pos = pos + 1
                return Token(TokenKind.STRING, "".join(out), start)
            out.append(text[pos])
            pos += 1
        raise LexError("unterminated string literal", position=start)

    def _number(self, start: int) -> Token:
        text = self.text
        pos = start
        is_float = False
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos < len(text) and text[pos] == ".":
            is_float = True
            pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
        if pos < len(text) and text[pos] in "eE":
            scan = pos + 1
            if scan < len(text) and text[scan] in "+-":
                scan += 1
            if scan < len(text) and text[scan].isdigit():
                is_float = True
                pos = scan
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
        self.pos = pos
        kind = TokenKind.FLOAT if is_float else TokenKind.INTEGER
        return Token(kind, text[start:pos], start)

    def _identifier(self, start: int) -> Token:
        text = self.text
        if text[start] == '"':
            # Delimited identifier: keeps case, never a keyword.
            end = text.find('"', start + 1)
            if end < 0:
                raise LexError("unterminated delimited identifier", position=start)
            self.pos = end + 1
            return Token(TokenKind.IDENT, text[start + 1 : end], start)
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        self.pos = pos
        word = text[start:pos]
        if word.upper() in KEYWORDS:
            return Token(TokenKind.KEYWORD, word.upper(), start)
        return Token(TokenKind.IDENT, word.lower(), start)


def tokenize(text: str) -> List[Token]:
    """Scan ``text`` into a token list ending with EOF."""
    return list(Lexer(text).tokens())


#: Literals and comments first, so whitespace inside them is never a gap.
_TEXT_PIECES = re.compile(r"'(?:[^']|'')*'|\"[^\"]*\"|--[^\n]*|\s+|[^\s'\"-]+|.", re.S)


def normalize_whitespace(text: str) -> str:
    """``text`` with every run of whitespace and line comments between
    tokens made one space, and none at either end.

    String literals and delimited identifiers keep their bytes, so two
    statements normalise alike only when they scan to the same tokens.
    """
    parts: List[str] = []
    gap = False
    for piece in _TEXT_PIECES.findall(text):
        if piece.isspace() or piece.startswith("--"):
            gap = True
            continue
        if gap and parts:
            parts.append(" ")
        gap = False
        parts.append(piece)
    return "".join(parts)
