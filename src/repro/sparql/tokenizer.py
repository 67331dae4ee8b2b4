"""Tokenizer for the supported SPARQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SparqlSyntaxError

KEYWORDS = frozenset(
    {
        "PREFIX",
        "BASE",
        "SELECT",
        "DISTINCT",
        "REDUCED",
        "WHERE",
        "FILTER",
        "OPTIONAL",
        "UNION",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "AS",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "REGEX",
        "BOUND",
        "STR",
        "A",
        "TRUE",
        "FALSE",
    }
)

#: Token kinds produced by the tokenizer.
PUNCT = ("{", "}", "(", ")", ".", ";", ",", "*", "/", "+", "-", "=")

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.\-]*:[A-Za-z0-9_][A-Za-z0-9_.\-]*)
  | (?P<PNAME_NS>[A-Za-z_][A-Za-z0-9_.\-]*:)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|!=|\|\||&&|[<>!])
  | (?P<LANGTAG>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<DTYPE>\^\^)
  | (?P<PUNCT>[{}().;,*/+\-=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset (for error messages)."""

    kind: str
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.text == word

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def tokenize(query: str) -> list[Token]:
    """Tokenize SPARQL text; raises :class:`SparqlSyntaxError` on junk."""
    tokens: list[Token] = []
    position = 0
    length = len(query)
    while position < length:
        match = _TOKEN_RE.match(query, position)
        if match is None:
            raise SparqlSyntaxError(
                f"unexpected character {query[position]!r}", position
            )
        kind = match.lastgroup or ""
        text = match.group(0)
        if kind == "WS":
            position = match.end()
            continue
        if kind == "NAME":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, position))
            else:
                raise SparqlSyntaxError(f"unexpected bare name {text!r}", position)
        elif kind == "OP":
            tokens.append(Token("OP", text, position))
        elif kind == "PUNCT":
            tokens.append(Token("PUNCT", text, position))
        else:
            tokens.append(Token(kind, text, position))
        position = match.end()
    tokens.append(Token("EOF", "", length))
    return tokens
