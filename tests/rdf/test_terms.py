"""Unit tests for RDF terms."""

import pytest

from repro.errors import RDFError
from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    is_concrete,
    term_sort_key,
)


class TestIRI:
    def test_n3(self):
        assert IRI("http://ex.org/a").n3() == "<http://ex.org/a>"

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            IRI("")

    def test_local_name_hash(self):
        assert IRI("http://ex.org/v#price").local_name() == "price"

    def test_local_name_slash(self):
        assert IRI("http://ex.org/v/price").local_name() == "price"

    def test_local_name_opaque(self):
        assert IRI("urn:thing").local_name() == "urn:thing"

    def test_equality_and_hash(self):
        assert IRI("urn:a") == IRI("urn:a")
        assert hash(IRI("urn:a")) == hash(IRI("urn:a"))
        assert IRI("urn:a") != IRI("urn:b")


class TestBNode:
    def test_n3(self):
        assert BNode("b0").n3() == "_:b0"

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            BNode("")


class TestLiteral:
    def test_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_typed(self):
        assert Literal("5", datatype=XSD_INTEGER).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_datatype_and_language_conflict(self):
        with pytest.raises(RDFError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_escaping(self):
        assert Literal('a"b\nc').n3() == '"a\\"b\\nc"'

    @pytest.mark.parametrize(
        "value,datatype,expected",
        [
            (42, XSD_INTEGER, 42),
            (2.5, XSD_DOUBLE, 2.5),
            (True, XSD_BOOLEAN, True),
        ],
    )
    def test_from_python_round_trip(self, value, datatype, expected):
        literal = Literal.from_python(value)
        assert literal.datatype == datatype
        assert literal.python_value() == expected

    def test_from_python_string(self):
        literal = Literal.from_python("plain")
        assert literal.datatype is None
        assert literal.python_value() == "plain"

    def test_from_python_rejects_other(self):
        with pytest.raises(RDFError):
            Literal.from_python(object())  # type: ignore[arg-type]

    def test_invalid_integer_lexical(self):
        with pytest.raises(RDFError):
            Literal("abc", datatype=XSD_INTEGER).python_value()

    def test_invalid_boolean_lexical(self):
        with pytest.raises(RDFError):
            Literal("maybe", datatype=XSD_BOOLEAN).python_value()

    def test_boolean_numeric_forms(self):
        assert Literal("1", datatype=XSD_BOOLEAN).python_value() is True
        assert Literal("0", datatype=XSD_BOOLEAN).python_value() is False


class TestParsedOnce:
    """``python_value`` pins its parse in a hidden cache slot."""

    def test_the_value_is_parsed_once(self, monkeypatch):
        parses = []
        parse = Literal._parse
        monkeypatch.setattr(Literal, "_parse", lambda self: parses.append(self) or parse(self))
        literal = Literal("2.5", datatype=XSD_DOUBLE)
        assert [literal.python_value() for _ in range(3)] == [2.5] * 3
        assert parses == [literal]

    def test_value_semantics_ignore_the_cache(self):
        parsed, fresh = Literal("7", datatype=XSD_INTEGER), Literal("7", datatype=XSD_INTEGER)
        before = (repr(parsed), hash(parsed))
        assert parsed.python_value() == 7
        assert (repr(parsed), hash(parsed)) == before
        assert parsed == fresh and repr(parsed) == repr(fresh)

    def test_a_bad_lexical_form_raises_every_time(self):
        literal = Literal("abc", datatype=XSD_INTEGER)
        for _ in range(2):
            with pytest.raises(RDFError):
                literal.python_value()
        assert literal._value is None

    def test_false_and_zero_are_cached_values(self):
        false, zero = Literal("false", datatype=XSD_BOOLEAN), Literal("0", datatype=XSD_INTEGER)
        assert false.python_value() is False and zero.python_value() == 0
        assert false._value is False and zero._value == 0

    def test_an_ntga_pass_parses_each_literal_it_reads_once(self, monkeypatch):
        """MG1-MG4 read every price once per aggregate and query that
        wants it; each literal object is parsed on its first read only."""
        from repro import run_query
        from repro.bench.catalog import CATALOG
        from repro.datasets import bsbm

        graph = bsbm.generate(bsbm.BSBMConfig(products=60, vendors=8, offers_per_product=2))
        parsed, reads = [], [0]
        parse, value = Literal._parse, Literal.python_value

        def reading(self):
            reads[0] += 1
            return value(self)

        monkeypatch.setattr(Literal, "_parse", lambda self: parsed.append(self) or parse(self))
        monkeypatch.setattr(Literal, "python_value", reading)
        for qid in ("MG1", "MG2", "MG3", "MG4"):
            run_query(CATALOG[qid].sparql, graph)
        assert len({id(literal) for literal in parsed}) == len(parsed) > 0
        assert reads[0] > 2 * len(parsed)


class TestVariable:
    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_sigil_rejected(self):
        with pytest.raises(RDFError):
            Variable("?x")

    def test_empty_rejected(self):
        with pytest.raises(RDFError):
            Variable("")


def test_is_concrete():
    assert is_concrete(IRI("urn:a"))
    assert is_concrete(Literal("x"))
    assert not is_concrete(Variable("v"))


def test_term_sort_key_orders_types():
    terms = [Literal("z"), BNode("a"), IRI("urn:z")]
    ordered = sorted(terms, key=term_sort_key)
    assert isinstance(ordered[0], IRI)
    assert isinstance(ordered[1], BNode)
    assert isinstance(ordered[2], Literal)


def test_term_sort_key_rejects_variables():
    with pytest.raises(RDFError):
        term_sort_key(Variable("v"))  # type: ignore[arg-type]
