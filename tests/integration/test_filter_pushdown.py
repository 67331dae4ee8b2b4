"""σ^γopt pushes a FILTER into star formation only where it is sound.

Star formation tests each triple of a property against the one variable
a pushed filter names.  When a star names that property in two
patterns (``?s <p> ?a . ?s <p> ?b``), dropping the triples ``?a``
rejects also takes away values ``?b`` ranges over -- or, mapped back to
the wrong pattern's variable, every triple of the property.  Such a
filter must stay residual: evaluated over the expanded rows.
"""

import pytest

from repro.bench.catalog import CATALOG
from repro.core.engines import PAPER_ENGINES, run_query
from repro.core.query_model import parse_analytical
from repro.ntga.composite import object_filters
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import Triple
from tests.conftest import canonical_sorted_rows

#: G8 with a second pattern on the filtered property.
G8_SCORE_TWICE = CATALOG["G8"].sparql.replace(
    "chem:Score ?s1 ;", "chem:Score ?s0 ; chem:Score ?s1 ;"
)

TWICE = """
SELECT ?s (COUNT(?b) AS ?n) {
  ?s <urn:p> ?a . ?s <urn:p> ?b .
  FILTER (?a > 5)
} GROUP BY ?s
"""


def answers(text, graph):
    return {
        engine: canonical_sorted_rows(run_query(text, graph, engine=engine).rows)
        for engine in ("reference", *PAPER_ENGINES)
    }


def test_g8_with_the_score_property_named_twice(chem_tiny):
    assert G8_SCORE_TWICE != CATALOG["G8"].sparql
    found = answers(G8_SCORE_TWICE, chem_tiny)
    assert len(found["reference"]) == 12
    for engine in PAPER_ENGINES:
        assert found[engine] == found["reference"], engine


def test_a_filter_on_one_of_two_patterns_of_a_property():
    graph = Graph()
    p = IRI("urn:p")
    for subject, values in (("urn:s0", (1, 6, 7)), ("urn:s1", (2, 3, 9)), ("urn:s2", (8,))):
        for value in values:
            graph.add(Triple(IRI(subject), p, Literal.from_python(value)))
    found = answers(TWICE, graph)
    # ?a > 5 holds for 2, 1 and 1 values; ?b ranges over all 3, 3 and 1.
    counts = sorted(dict(row)["n"] for row in found["reference"])
    assert counts == [f'"{n}"^^<http://www.w3.org/2001/XMLSchema#integer>' for n in (1, 3, 6)]
    for engine in PAPER_ENGINES:
        assert found[engine] == found["reference"], engine


@pytest.mark.parametrize(
    "text, pushed",
    [
        (TWICE, {}),
        (TWICE.replace("?s <urn:p> ?b", "?s <urn:q> ?b"), {"urn:p": 1}),
    ],
    ids=["named-twice", "named-once"],
)
def test_object_filters_pushes_only_onto_a_property_named_once(text, pushed):
    pattern = parse_analytical(text).subqueries[0].pattern
    found = object_filters(pattern.stars[0], pattern.filters)
    assert {key.property.value: len(filters) for key, filters in found.items()} == pushed
