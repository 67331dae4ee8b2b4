"""N-Triples serialization and parsing.

Supports the W3C N-Triples grammar restricted to the constructs the
benchmark datasets use: IRIs, blank nodes, and plain / typed /
language-tagged literals with the standard string escapes.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator

from repro.errors import NTriplesParseError
from repro.rdf.graph import Graph
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.rdf.triples import Triple

_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z][A-Za-z0-9]*)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'  # lexical form with escapes
    r"(?:\^\^<([^<>\s]+)>|@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*))?"  # datatype or lang
)

#: What may follow the terminating '.': white space, then a comment.
_END_RE = re.compile(r"\.[ \t]*(?:#.*)?")

_UNESCAPE_MAP = {
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
    '\\"': '"',
    "\\\\": "\\",
}
_UNESCAPE_RE = re.compile(r"\\[ntr\"\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}")


def _unescape(text: str, line_number: int) -> str:
    def replace(match: re.Match) -> str:
        token = match.group(0)
        if token in _UNESCAPE_MAP:
            return _UNESCAPE_MAP[token]
        code = int(token[2:], 16)
        # Past U+10FFFF there is no character; a surrogate is half of a
        # UTF-16 pair, which text cannot hold alone (nor write as UTF-8).
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise NTriplesParseError(
                f"escape {token} is not a Unicode scalar value", line_number
            )
        return chr(code)

    return _UNESCAPE_RE.sub(replace, text)


def _parse_term(
    text: str, position: int, line_number: int, iris: dict[str, IRI]
) -> tuple[Term, int]:
    """Parse one term starting at *position*; returns (term, next position).
    *iris* maps IRI text to the term already built for it."""
    while position < len(text) and text[position] in " \t":
        position += 1
    if position >= len(text):
        raise NTriplesParseError("unexpected end of line", line_number)
    head = text[position]
    if head == "<":
        match = _IRI_RE.match(text, position)
        if not match:
            raise NTriplesParseError(f"malformed IRI at column {position}", line_number)
        value = match.group(1)
        iri = iris.get(value)
        if iri is None:
            iri = iris[value] = IRI(value)
        return iri, match.end()
    if head == "_":
        match = _BNODE_RE.match(text, position)
        if not match:
            raise NTriplesParseError(f"malformed blank node at column {position}", line_number)
        return BNode(match.group(1)), match.end()
    if head == '"':
        match = _LITERAL_RE.match(text, position)
        if not match:
            raise NTriplesParseError(f"malformed literal at column {position}", line_number)
        lexical = _unescape(match.group(1), line_number)
        datatype, language = match.group(2), match.group(3)
        return Literal(lexical, datatype=datatype, language=language), match.end()
    raise NTriplesParseError(f"unexpected character {head!r} at column {position}", line_number)


def parse_line(line: str, line_number: int = 0) -> Triple | None:
    """Parse one N-Triples line; returns None for blank/comment lines.
    A comment may also follow the terminating '.'."""
    return _parse_line(line, line_number, {})


def _parse_line(line: str, line_number: int, iris: dict[str, IRI]) -> Triple | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    subject, position = _parse_term(stripped, 0, line_number, iris)
    if isinstance(subject, Literal):
        raise NTriplesParseError("literal in subject position", line_number)
    prop, position = _parse_term(stripped, position, line_number, iris)
    if not isinstance(prop, IRI):
        raise NTriplesParseError("property must be an IRI", line_number)
    obj, position = _parse_term(stripped, position, line_number, iris)
    remainder = stripped[position:].strip()
    if not _END_RE.fullmatch(remainder):
        raise NTriplesParseError(f"expected terminating '.', got {remainder!r}", line_number)
    return Triple(subject, prop, obj)


def parse(source: str | IO[str]) -> Iterator[Triple]:
    """Parse N-Triples text (a string or readable file object).  Each IRI
    is built once per call: every later mention reuses that term."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    iris: dict[str, IRI] = {}
    for line_number, line in enumerate(stream, start=1):
        triple = _parse_line(line, line_number, iris)
        if triple is not None:
            yield triple


def parse_graph(source: str | IO[str]) -> Graph:
    """Parse N-Triples input into a new :class:`Graph`."""
    return Graph(parse(source))


def serialize(triples: Iterable[Triple]) -> str:
    """Serialize triples as N-Triples text (one triple per line)."""
    return "".join(triple.n3() + "\n" for triple in triples)


def write(triples: Iterable[Triple], stream: IO[str]) -> int:
    """Write triples to *stream*; returns the number written."""
    count = 0
    for triple in triples:
        stream.write(triple.n3() + "\n")
        count += 1
    return count
