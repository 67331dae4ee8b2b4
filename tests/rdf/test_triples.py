"""Unit tests for triples and triple patterns."""

import pytest

from repro.errors import RDFError
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple, TriplePattern, join_variables

S, P, O = IRI("urn:s"), IRI("urn:p"), IRI("urn:o")


class TestTriple:
    def test_construction_and_iteration(self):
        triple = Triple(S, P, O)
        assert list(triple) == [S, P, O]

    def test_literal_subject_rejected(self):
        with pytest.raises(RDFError):
            Triple(Literal("x"), P, O)

    def test_variable_component_rejected(self):
        with pytest.raises(RDFError):
            Triple(S, P, Variable("v"))  # type: ignore[arg-type]

    def test_non_iri_property_rejected(self):
        with pytest.raises(RDFError):
            Triple(S, Literal("p"), O)  # type: ignore[arg-type]

    def test_n3(self):
        assert Triple(S, P, O).n3() == "<urn:s> <urn:p> <urn:o> ."


class TestTriplePattern:
    def test_variables(self):
        pattern = TriplePattern(Variable("s"), P, Variable("o"))
        assert pattern.variables() == frozenset({Variable("s"), Variable("o")})

    def test_prop_bound(self):
        assert TriplePattern(Variable("s"), P, O).prop() == P

    def test_prop_unbound(self):
        assert TriplePattern(Variable("s"), Variable("p"), O).prop() is None

    def test_is_rdf_type(self):
        assert TriplePattern(Variable("s"), RDF_TYPE, O).is_rdf_type()
        assert not TriplePattern(Variable("s"), P, O).is_rdf_type()

    def test_role_of(self):
        pattern = TriplePattern(Variable("s"), P, Variable("o"))
        assert pattern.role_of(Variable("s")) == "subject"
        assert pattern.role_of(Variable("o")) == "object"

    def test_role_of_missing_variable(self):
        pattern = TriplePattern(Variable("s"), P, O)
        with pytest.raises(RDFError):
            pattern.role_of(Variable("zz"))


def test_join_variables():
    tp1 = TriplePattern(Variable("a"), P, Variable("b"))
    tp2 = TriplePattern(Variable("b"), P, Variable("c"))
    assert join_variables(tp1, tp2) == frozenset({Variable("b")})
