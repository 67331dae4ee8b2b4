"""The reference's BGP matching walks the graph's indexes, and its rows
come out the same, in the same order and with the same key order, as
the substitute-and-bind algorithm it replaced (written out below)."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.catalog import CATALOG
from repro.datasets import bsbm, chem2bio2rdf, pubmed
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.sparql.evaluator import evaluate_bgp
from tests.conftest import catalog_query


def substitute_and_bind_bgp(patterns, graph):
    """Each candidate substituted into a pattern, looked up through
    ``Graph.triples``, bound, and merged into a copy of its row."""

    def substitute(pattern, row):
        return TriplePattern(
            *(row.get(c, c) if isinstance(c, Variable) else c for c in pattern)
        )

    def bind(pattern, triple):
        bindings = {}
        for component, term in zip(pattern, triple):
            if isinstance(component, Variable):
                earlier = bindings.get(component)
                if earlier is None:
                    bindings[component] = term
                elif earlier != term:
                    return None
            elif component != term:
                return None
        return bindings

    def selectivity(pattern, bound):
        return sum(1 for c in pattern if not isinstance(c, Variable) or c in bound)

    rows = [{}]
    remaining = list(patterns)
    bound = set()
    while remaining:
        remaining.sort(key=lambda p: selectivity(p, bound), reverse=True)
        pattern = remaining.pop(0)
        next_rows = []
        for row in rows:
            concrete = substitute(pattern, row)
            lookup = [None if isinstance(c, Variable) else c for c in concrete]
            for triple in graph.triples(*lookup):
                bindings = bind(concrete, triple)
                if bindings is not None:
                    merged = dict(row)
                    merged.update(bindings)
                    next_rows.append(merged)
        rows = next_rows
        if not rows:
            return []
        bound |= pattern.variables()
    return rows


def as_lists(rows):
    """Rows with each row's key order made part of equality."""
    return [list(row.items()) for row in rows]


SUBJECTS = [IRI(f"urn:s{i}") for i in range(1, 4)]
PROPERTIES = [IRI(f"urn:p{i}") for i in range(1, 4)]
OBJECTS = SUBJECTS + [IRI("urn:o1"), Literal("x"), Literal.from_python(7)]
ABSENT = IRI("urn:absent")
VARIABLES = [Variable(name) for name in ("a", "b", "c", "p")]

#: One (p, o) reached from every subject, and one subject reaching
#: several (p, o): shuffled into the graph, they make the SPO, POS and
#: OSP walks and the insertion order all disagree.
FAN = [(s, PROPERTIES[0], OBJECTS[3]) for s in SUBJECTS] + [
    (SUBJECTS[0], PROPERTIES[1], OBJECTS[4]),
    (SUBJECTS[0], PROPERTIES[0], SUBJECTS[0]),
]

_triples = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PROPERTIES), st.sampled_from(OBJECTS)
)


@st.composite
def graphs(draw):
    inserted = draw(st.permutations(FAN + draw(st.lists(_triples, max_size=10))))
    graph = Graph(Triple(*t) for t in inserted)
    dropped = draw(st.lists(st.sampled_from(inserted), max_size=4))
    for t in dropped:
        graph.discard(Triple(*t))
    for t in dropped[: draw(st.integers(0, 2))]:
        graph.add(Triple(*t))  # back in, behind what was inserted after it
    return graph


_patterns = st.builds(
    TriplePattern,
    st.sampled_from(VARIABLES[:3] + SUBJECTS[:1] + [ABSENT]),
    st.sampled_from(PROPERTIES[:2] + VARIABLES[3:]),
    st.sampled_from(VARIABLES[:3] + OBJECTS[3:5] + [SUBJECTS[0], ABSENT]),
)


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), patterns=st.lists(_patterns, min_size=1, max_size=4))
def test_bgp_rows_equal_substitute_and_bind(graph, patterns):
    assert as_lists(evaluate_bgp(patterns, graph)) == as_lists(
        substitute_and_bind_bgp(patterns, graph)
    )


A, B, P = Variable("a"), Variable("b"), Variable("p")


@pytest.mark.parametrize(
    "patterns,count",
    [
        ([TriplePattern(A, PROPERTIES[0], A)], 1),
        ([TriplePattern(SUBJECTS[0], P, B)], 3),
        ([TriplePattern(A, P, OBJECTS[3])], 3),
        ([TriplePattern(A, PROPERTIES[0], B), TriplePattern(B, PROPERTIES[0], OBJECTS[3])], 1),
        ([TriplePattern(A, PROPERTIES[0], B), TriplePattern(A, P, OBJECTS[4])], 2),
        ([TriplePattern(A, PROPERTIES[0], ABSENT)], 0),
        ([TriplePattern(A, PROPERTIES[0], B), TriplePattern(B, PROPERTIES[2], A)], 0),
    ],
    ids=[
        "x-p-x", "concrete-subject", "concrete-object", "shared",
        "var-property", "absent", "no-match",
    ],
)
def test_each_shape_on_the_fan(patterns, count):
    graph = Graph(Triple(*t) for t in reversed(FAN))
    rows = evaluate_bgp(patterns, graph)
    assert as_lists(rows) == as_lists(substitute_and_bind_bgp(patterns, graph))
    assert len(rows) == count


@cache
def tiny_graph(dataset: str) -> Graph:
    generator = {"bsbm": bsbm, "chem": chem2bio2rdf, "pubmed": pubmed}[dataset]
    return generator.generate(generator.preset("tiny"))


@pytest.mark.parametrize("qid", list(CATALOG))
def test_catalog_subquery_bgps_equal_substitute_and_bind(qid):
    graph = tiny_graph(CATALOG[qid].dataset)
    for subquery in catalog_query(qid).subqueries:
        required, optional = [], []
        for star in subquery.pattern.stars:
            for pattern in star.patterns:
                (optional if star.is_optional(pattern) else required).append(pattern)
        for patterns in [required] + [[pattern] for pattern in optional]:
            rows = evaluate_bgp(patterns, graph)
            assert as_lists(rows) == as_lists(substitute_and_bind_bgp(patterns, graph))
