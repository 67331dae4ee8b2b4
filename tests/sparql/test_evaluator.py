"""The reference evaluator's SPARQL semantics, where every engine meets it.

Each query is an analytical query run on the reference engine and the
four paper engines over one small graph of people: the reference must
give the stated rows, and every paper engine the reference's rows (in
order, when the query orders or slices them).  The cases are SPARQL's
grouping corners -- empty input with and without GROUP BY, unbound
aggregate inputs, HAVING, OPTIONAL, FILTER errors and REGEX -- and the
result modifiers.
"""

import pytest

from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.errors import UnsupportedQueryError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple
from tests.conftest import canonical_sorted_rows


def iri(name):
    return IRI("http://ex.org/" + name)


@pytest.fixture(scope="module")
def graph():
    return Graph(
        [
            Triple(iri("alice"), RDF_TYPE, iri("Person")),
            Triple(iri("alice"), iri("age"), Literal.from_python(30)),
            Triple(iri("alice"), iri("city"), iri("paris")),
            Triple(iri("bob"), RDF_TYPE, iri("Person")),
            Triple(iri("bob"), iri("age"), Literal.from_python(25)),
            Triple(iri("bob"), iri("city"), iri("paris")),
            Triple(iri("carol"), RDF_TYPE, iri("Person")),
            Triple(iri("carol"), iri("age"), Literal.from_python(35)),
            Triple(iri("carol"), iri("city"), iri("tokyo")),
            Triple(iri("dave"), RDF_TYPE, iri("Person")),  # no age, no city
        ]
    )


PREFIX = "PREFIX ex: <http://ex.org/>\n"


def answer(text, graph):
    """The reference engine's rows; every paper engine must answer the same."""
    analytical = to_analytical(PREFIX + text)
    rows = make_engine("reference").execute(analytical, graph).rows
    ordered = analytical.has_modifiers()
    for engine in PAPER_ENGINES:
        theirs = make_engine(engine).execute(analytical, graph).rows
        if ordered:
            assert theirs == rows, engine
        else:
            assert canonical_sorted_rows(theirs) == canonical_sorted_rows(rows), engine
    return rows


def value(row, name):
    term = row[Variable(name)]
    return term.python_value() if isinstance(term, Literal) else term


def count(text, graph):
    """The one ``?n`` of a GROUP BY ALL count."""
    (row,) = answer(text, graph)
    return value(row, "n")


class TestBGP:
    def test_simple_match(self, graph):
        assert count("SELECT (COUNT(*) AS ?n) { ?s a ex:Person }", graph) == 4

    def test_join_within_bgp(self, graph):
        assert count("SELECT (COUNT(*) AS ?n) { ?s a ex:Person ; ex:age ?age }", graph) == 3

    def test_no_match(self, graph):
        assert answer("SELECT ?s (COUNT(*) AS ?n) { ?s a ex:Robot } GROUP BY ?s", graph) == []

    def test_concrete_object(self, graph):
        assert count("SELECT (COUNT(?s) AS ?n) { ?s ex:city ex:paris }", graph) == 2


class TestFilter:
    def test_comparison(self, graph):
        assert count("SELECT (COUNT(?s) AS ?n) { ?s ex:age ?a . FILTER(?a > 28) }", graph) == 2

    def test_regex(self, graph):
        text = 'SELECT (COUNT(?s) AS ?n) { ?s ex:age ?a . FILTER REGEX(STR(?s), "ali") }'
        assert count(text, graph) == 1

    def test_error_in_filter_is_false(self, graph):
        # ?missing is unbound for everyone, and an IRI does not order
        # against a number: both errors, so false -- unless the other
        # side of an || is true.
        text = "SELECT (COUNT(?s) AS ?n) { ?s a ex:Person . FILTER(?missing > 1) }"
        assert count(text, graph) == 0
        text = "SELECT ?c (COUNT(?s) AS ?n) { ?s ex:city ?c . FILTER(?c > 1) } GROUP BY ?c"
        assert answer(text, graph) == []
        text = (
            "SELECT ?c (COUNT(?s) AS ?n) { ?s ex:city ?c ; ex:age ?a . "
            "FILTER(?c > 1 || ?a > 28) } GROUP BY ?c"
        )
        assert sorted(value(row, "n") for row in answer(text, graph)) == [1, 1]


class TestOptional:
    def test_optional_keeps_unmatched(self, graph):
        rows = answer(
            "SELECT ?s (COUNT(?a) AS ?n) { ?s a ex:Person OPTIONAL { ?s ex:age ?a } } GROUP BY ?s",
            graph,
        )
        counts = {value(row, "s"): value(row, "n") for row in rows}
        assert counts == {iri("alice"): 1, iri("bob"): 1, iri("carol"): 1, iri("dave"): 0}


class TestGrouping:
    def test_group_by_with_count(self, graph):
        rows = answer("SELECT ?c (COUNT(?s) AS ?n) { ?s ex:city ?c } GROUP BY ?c", graph)
        result = {str(row[Variable("c")]): value(row, "n") for row in rows}
        assert result == {"<http://ex.org/paris>": 2, "<http://ex.org/tokyo>": 1}

    def test_group_by_all(self, graph):
        (row,) = answer("SELECT (SUM(?a) AS ?total) (AVG(?a) AS ?mean) { ?s ex:age ?a }", graph)
        assert value(row, "total") == 90
        assert value(row, "mean") == 30

    def test_group_by_all_empty_input_yields_one_row(self, graph):
        rows = answer(
            "SELECT (COUNT(?a) AS ?n) (MIN(?a) AS ?m) { ?s a ex:Robot ; ex:age ?a }", graph
        )
        assert [{v.name: t.python_value() for v, t in row.items()} for row in rows] == [{"n": 0}]

    def test_group_by_empty_input_yields_no_rows(self, graph):
        text = "SELECT ?c (COUNT(?s) AS ?n) { ?s a ex:Robot ; ex:city ?c } GROUP BY ?c"
        assert answer(text, graph) == []

    def test_min_of_empty_group_left_unbound(self, graph):
        assert answer("SELECT (MIN(?a) AS ?m) { ?s a ex:Robot ; ex:age ?a }", graph) == [{}]

    def test_count_skips_unbound(self, graph):
        (row,) = answer(
            "SELECT (COUNT(?a) AS ?n) (COUNT(*) AS ?all) "
            "{ ?s a ex:Person OPTIONAL { ?s ex:age ?a } }",
            graph,
        )
        assert value(row, "n") == 3
        assert value(row, "all") == 4

    def test_having(self, graph):
        text = "SELECT ?c (COUNT(?s) AS ?n) { ?s ex:city ?c } GROUP BY ?c HAVING (?n > 1)"
        assert [value(row, "n") for row in answer(text, graph)] == [2]

    def test_projection_of_ungrouped_variable_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            to_analytical(PREFIX + "SELECT ?s (COUNT(?a) AS ?n) { ?s ex:age ?a } GROUP BY ?c")


AGES = "{ SELECT ?s (SUM(?a) AS ?age) { ?s ex:age ?a } GROUP BY ?s }"


class TestModifiers:
    def test_distinct(self, graph):
        text = (
            "SELECT DISTINCT ?n "
            "{ { SELECT ?s (COUNT(?c) AS ?n) { ?s ex:city ?c } GROUP BY ?s } }"
        )
        assert [value(row, "n") for row in answer(text, graph)] == [1]

    def test_order_by(self, graph):
        rows = answer(f"SELECT ?s ?age {{ {AGES} }} ORDER BY ?age", graph)
        assert [value(row, "age") for row in rows] == [25, 30, 35]

    def test_order_by_desc(self, graph):
        rows = answer(f"SELECT ?s ?age {{ {AGES} }} ORDER BY DESC(?age)", graph)
        assert [value(row, "age") for row in rows] == [35, 30, 25]

    def test_limit_offset(self, graph):
        rows = answer(f"SELECT ?s ?age {{ {AGES} }} ORDER BY ?age LIMIT 1 OFFSET 1", graph)
        assert [value(row, "age") for row in rows] == [30]

    def test_projection_expression(self, graph):
        text = f"SELECT (?age * 2 AS ?double) ?age {{ {AGES} }} ORDER BY ?age LIMIT 1"
        rows = answer(text, graph)
        assert [value(row, "double") for row in rows] == [50]


class TestSubqueries:
    def test_subquery_join(self, graph):
        query = """
SELECT ?c ?n ?total {
  { SELECT ?c (COUNT(?s) AS ?n) { ?s ex:city ?c } GROUP BY ?c }
  { SELECT (COUNT(?s2) AS ?total) { ?s2 ex:city ?c2 } }
}
"""
        rows = answer(query, graph)
        assert len(rows) == 2
        for row in rows:
            assert value(row, "total") == 3
