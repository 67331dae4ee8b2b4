"""Unit tests for the indexed graph."""

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern


@pytest.fixture
def graph() -> Graph:
    g = Graph()
    g.add_all(
        [
            Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")),
            Triple(IRI("urn:a"), IRI("urn:p2"), Literal("x")),
            Triple(IRI("urn:b"), IRI("urn:p1"), IRI("urn:c")),
            Triple(IRI("urn:c"), IRI("urn:p2"), Literal("x")),
        ]
    )
    return g


def test_len_and_contains(graph):
    assert len(graph) == 4
    assert Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")) in graph


def test_add_duplicate_returns_false(graph):
    assert not graph.add(Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")))
    assert len(graph) == 4


def test_discard(graph):
    triple = Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b"))
    assert graph.discard(triple)
    assert triple not in graph
    assert not graph.discard(triple)
    # The indexes must be consistent after removal.
    assert list(graph.triples(IRI("urn:a"), IRI("urn:p1"), None)) == []


@pytest.mark.parametrize(
    "lookup,expected_count",
    [
        ((IRI("urn:a"), None, None), 2),
        ((None, IRI("urn:p1"), None), 2),
        ((None, None, Literal("x")), 2),
        ((IRI("urn:a"), IRI("urn:p2"), None), 1),
        ((None, IRI("urn:p1"), IRI("urn:c")), 1),
        ((IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")), 1),
        ((None, None, None), 4),
        ((IRI("urn:zz"), None, None), 0),
        ((None, IRI("urn:zz"), None), 0),
        ((None, None, IRI("urn:zz")), 0),
    ],
)
def test_triples_lookup(graph, lookup, expected_count):
    assert len(list(graph.triples(*lookup))) == expected_count


def test_match_bindings(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:p2"), Variable("o"))
    subjects = {b[Variable("s")] for b in graph.match(pattern)}
    assert subjects == {IRI("urn:a"), IRI("urn:c")}


def test_match_repeated_variable(graph):
    graph2 = graph.copy()
    graph2.add(Triple(IRI("urn:d"), IRI("urn:p1"), IRI("urn:d")))
    pattern = TriplePattern(Variable("x"), IRI("urn:p1"), Variable("x"))
    matches = list(graph2.match(pattern))
    assert matches == [{Variable("x"): IRI("urn:d")}]


def test_match_repeated_variable_consistency():
    s, p, o = IRI("urn:s"), IRI("urn:p"), IRI("urn:o")
    pattern = TriplePattern(Variable("x"), p, Variable("x"))
    assert list(Graph([Triple(s, p, o)]).match(pattern)) == []
    assert list(Graph([Triple(s, p, s)]).match(pattern)) == [{Variable("x"): s}]


def test_match_constant_mismatch(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:zz"), Variable("o"))
    assert list(graph.match(pattern)) == []
    pattern = TriplePattern(IRI("urn:a"), IRI("urn:p1"), IRI("urn:c"))
    assert list(graph.match(pattern)) == []


def test_match_binds_in_component_order(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:p1"), Variable("o"))
    assert [list(b.items()) for b in graph.match(pattern)] == [
        [(Variable("s"), IRI("urn:a")), (Variable("o"), IRI("urn:b"))],
        [(Variable("s"), IRI("urn:b")), (Variable("o"), IRI("urn:c"))],
    ]


def test_match_constant_components(graph):
    s = Variable("s")
    assert list(graph.match(TriplePattern(s, IRI("urn:p1"), IRI("urn:b")))) == [
        {s: IRI("urn:a")}
    ]
    assert list(graph.match(TriplePattern(s, IRI("urn:p1"), IRI("urn:x")))) == []
    assert list(graph.match(TriplePattern(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")))) == [{}]


def test_discard_prunes_emptied_index_entries():
    graph = Graph()
    triple = Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))
    graph.add(triple)
    graph.discard(triple)
    assert len(graph) == 0
    assert graph.properties() == set()
    assert graph.property_counts() == {}
    assert graph.subjects() == set() and graph.objects() == set()


def test_walk_yields_raw_components_in_index_order(graph):
    graph.add(Triple(IRI("urn:c"), IRI("urn:p1"), IRI("urn:b")))
    # POS: grouped by object, subjects in insertion order within each.
    assert list(graph.walk(None, IRI("urn:p1"), None)) == [
        (IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")),
        (IRI("urn:c"), IRI("urn:p1"), IRI("urn:b")),
        (IRI("urn:b"), IRI("urn:p1"), IRI("urn:c")),
    ]
    assert list(graph.triples(None, IRI("urn:p1"), None)) == [
        Triple(*terms) for terms in graph.walk(None, IRI("urn:p1"), None)
    ]


def test_subjects_objects_properties(graph):
    assert graph.subjects(IRI("urn:p1")) == {IRI("urn:a"), IRI("urn:b")}
    assert graph.objects(IRI("urn:a")) == {IRI("urn:b"), Literal("x")}
    assert graph.properties() == {IRI("urn:p1"), IRI("urn:p2")}


def test_property_counts(graph):
    assert graph.property_counts() == {IRI("urn:p1"): 2, IRI("urn:p2"): 2}


def test_subject_grouped(graph):
    grouped = graph.subject_grouped()
    assert set(grouped) == {IRI("urn:a"), IRI("urn:b"), IRI("urn:c")}
    assert len(grouped[IRI("urn:a")]) == 2


def test_copy_is_independent(graph):
    clone = graph.copy()
    clone.add(Triple(IRI("urn:z"), IRI("urn:p1"), IRI("urn:z")))
    assert len(clone) == 5
    assert len(graph) == 4
