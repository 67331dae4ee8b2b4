"""Unit and property tests for N-Triples parsing/serialization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NTriplesParseError, ReproError
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse, parse_graph, parse_line, serialize
from repro.rdf.terms import BNode, IRI, Literal
from repro.rdf.triples import Triple


class TestParseLine:
    def test_iri_triple(self):
        triple = parse_line("<urn:s> <urn:p> <urn:o> .")
        assert triple == Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))

    def test_plain_literal(self):
        triple = parse_line('<urn:s> <urn:p> "hello" .')
        assert triple.object == Literal("hello")

    def test_language_literal(self):
        triple = parse_line('<urn:s> <urn:p> "bonjour"@fr .')
        assert triple.object == Literal("bonjour", language="fr")

    def test_typed_literal(self):
        triple = parse_line('<urn:s> <urn:p> "5"^^<urn:int> .')
        assert triple.object == Literal("5", datatype="urn:int")

    def test_bnode_subject(self):
        triple = parse_line("_:b0 <urn:p> <urn:o> .")
        assert triple.subject == BNode("b0")

    def test_escapes(self):
        triple = parse_line(r'<urn:s> <urn:p> "a\"b\nc\t\\d" .')
        assert triple.object.lexical == 'a"b\nc\t\\d'

    def test_unicode_escape(self):
        triple = parse_line(r'<urn:s> <urn:p> "é" .')
        assert triple.object.lexical == "é"

    def test_comment_and_blank_lines(self):
        assert parse_line("# a comment") is None
        assert parse_line("   ") is None

    @pytest.mark.parametrize(
        "bad",
        [
            "<urn:s> <urn:p> <urn:o>",  # missing dot
            "<urn:s> <urn:p> .",  # missing object
            '"lit" <urn:p> <urn:o> .',  # literal subject
            "<urn:s> _:b <urn:o> .",  # bnode property
            "<urn:s> <urn:p> <urn:o> . extra",  # trailing junk
            "<urn:s> <urn:p> <urn:o> . junk # note",  # junk before the comment
            "<urn:s> <urn:p> <urn:o> # note",  # a comment is no '.'
            "<urn:s> <urn:p> <urn:o> # c .",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(NTriplesParseError):
            parse_line(bad, line_number=3)

    @pytest.mark.parametrize(
        "line",
        [
            "<urn:s> <urn:p> <urn:o> . # note",
            '<urn:s> <urn:p> "x" .# c',
            "<urn:s> <urn:p> <urn:o> .\t#",
            '<urn:s> <urn:p> "a # b" . # c',
            "<urn:s> <urn:p> <urn:o#frag> . #",
        ],
    )
    def test_comment_after_the_terminating_dot(self, line):
        """RDF 1.1 N-Triples reads a comment as white space."""
        triple = parse_line(line)
        assert triple.subject == IRI("urn:s") and triple.property == IRI("urn:p")
        assert list(parse(line + "\n")) == [triple]

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesParseError) as exc_info:
            parse_line("<urn:s> oops", line_number=7)
        assert exc_info.value.line_number == 7
        assert "line 7" in str(exc_info.value)


@pytest.mark.parametrize(
    "escape", [r"\U00110000", r"\UFFFFFFFF", r"\uD800", r"\uDFFF", r"\U0000DC00"]
)
def test_escape_of_no_character_is_a_parse_error(escape):
    """An escape past U+10FFFF names no character, and a lone surrogate
    is no text one can write back as UTF-8: both are malformed input,
    reported with the line, never a bare ValueError."""
    document = '<http://x/a> <http://x/b> "ok" .\n<http://x/a> <http://x/b> "x%s" .\n' % escape
    with pytest.raises(NTriplesParseError) as exc_info:
        list(parse(document))
    assert exc_info.value.line_number == 2
    assert "line 2" in str(exc_info.value)


def test_escape_at_the_edges_of_unicode_parses():
    triple = parse_line(r'<urn:s> <urn:p> "\U0010FFFF\uD7FF\uE000" .')
    assert triple.object.lexical == "\U0010FFFF\uD7FF\uE000"
    assert triple.object.n3().encode("utf-8")


_HEX = "0123456789abcdefABCDEF"
_escapes = st.one_of(
    st.sampled_from([r"\n", r"\t", r"\r", r'\"', r"\\", "\\", "\\x"]),
    st.text(st.sampled_from(_HEX), min_size=4, max_size=4).map(lambda h: "\\u" + h),
    st.text(st.sampled_from(_HEX), min_size=8, max_size=8).map(lambda h: "\\U" + h),
)
_lexical = st.lists(st.one_of(st.text(max_size=4), _escapes), max_size=6).map("".join)
_tails = st.sampled_from(
    [" .", "^^<urn:t> .", "@en .", "@ .", "^^<> .", " . x", "", " . # c", ".#", " # c ."]
)
_lines = st.one_of(
    st.text(),
    st.builds(
        lambda subject, lexical, tail: f'{subject} <urn:p> "{lexical}"{tail}',
        st.sampled_from(["<urn:s>", "_:b1", "_:", '"s"', "<urn:s"]),
        _lexical,
        _tails,
    ),
)


@settings(max_examples=500, deadline=None)
@given(_lines)
@example("<urn:s> <urn:p> <urn:o> . # note")
@example('<urn:s> <urn:p> "x" .# c')
def test_parse_line_on_arbitrary_text(text):
    """Whatever the line, the parser answers with a triple, with nothing
    (blank or comment), or with a library error -- never with an
    exception of Python's own."""
    try:
        result = parse_line(text, line_number=5)
    except ReproError:
        return
    assert result is None or isinstance(result, Triple)


def test_parse_multi_line_document():
    document = """# header
<urn:a> <urn:p> <urn:b> .

<urn:b> <urn:p> "x"@en .
"""
    triples = list(parse(document))
    assert len(triples) == 2


def test_parse_graph():
    graph = parse_graph("<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> <urn:b> .\n")
    assert len(graph) == 1  # graphs deduplicate


_terms = st.one_of(
    st.from_regex(r"urn:[a-z]{1,10}", fullmatch=True).map(IRI),
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,8}", fullmatch=True).map(BNode),
)
_objects = st.one_of(
    _terms,
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=32),
        max_size=30,
    ).map(Literal),
    st.integers(-10**9, 10**9).map(Literal.from_python),
    st.from_regex(r"[a-z]{1,8}", fullmatch=True).map(lambda s: Literal(s, language="en")),
)
_triples = st.builds(
    Triple,
    subject=_terms,
    property=st.from_regex(r"urn:p[a-z]{0,8}", fullmatch=True).map(IRI),
    object=_objects,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples, max_size=20))
def test_round_trip_property(triples):
    """serialize → parse is the identity on triple lists."""
    assert list(parse(serialize(triples))) == triples


@settings(max_examples=50, deadline=None)
@given(st.lists(_triples, max_size=20))
def test_graph_round_trip_property(triples):
    graph = Graph(triples)
    assert parse_graph(serialize(graph))._triples == graph._triples
