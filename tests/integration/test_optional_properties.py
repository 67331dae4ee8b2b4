"""OPTIONAL properties in grouping subqueries, across all engines.

The user-level counterpart of Definition 3.3's P_opt: a star matches
even when an OPTIONAL property is absent, and its variable stays
unbound (grouping on it yields a NULL-keyed group, COUNT skips it).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.query_model import parse_analytical
from repro.core.results import EngineConfig
from repro.errors import UnsupportedQueryError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple
from tests.conftest import canonical_rows

EX = "http://opt.org/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture(scope="module")
def discount_graph():
    """p0: one discount; p1: two discounts; p2: none. Two offers each."""
    graph = Graph()
    for index in range(3):
        product = iri(f"p{index}")
        graph.add(Triple(product, RDF_TYPE, iri("PT")))
        graph.add(Triple(product, iri("label"), Literal(f"l{index}")))
        for offer_index in range(2):
            offer = iri(f"o{index}_{offer_index}")
            graph.add(Triple(offer, iri("product"), product))
            graph.add(
                Triple(offer, iri("price"), Literal.from_python(100 * (index + 1) + offer_index))
            )
    graph.add(Triple(iri("p0"), iri("discount"), Literal.from_python(5)))
    graph.add(Triple(iri("p1"), iri("discount"), Literal.from_python(7)))
    graph.add(Triple(iri("p1"), iri("discount"), Literal.from_python(9)))
    return graph


GROUP_ON_OPTIONAL = f"""
PREFIX o: <{EX}>
SELECT ?d (COUNT(?pr) AS ?cnt) {{
  ?p a o:PT ; o:label ?l .
  OPTIONAL {{ ?p o:discount ?d }}
  ?o o:product ?p ; o:price ?pr .
}} GROUP BY ?d
"""

COUNT_OPTIONAL = f"""
PREFIX o: <{EX}>
SELECT (COUNT(?d) AS ?withDiscount) (COUNT(?pr) AS ?offers) {{
  ?p a o:PT ; o:label ?l .
  OPTIONAL {{ ?p o:discount ?d }}
  ?o o:product ?p ; o:price ?pr .
}}
"""

MULTI_GROUPING_OPTIONAL = f"""
PREFIX o: <{EX}>
SELECT ?d ?cnt ?tot {{
  {{ SELECT ?d (COUNT(?pr) AS ?cnt) {{
      ?p a o:PT ; o:label ?l .
      OPTIONAL {{ ?p o:discount ?d }}
      ?o o:product ?p ; o:price ?pr .
    }} GROUP BY ?d
  }}
  {{ SELECT (COUNT(?pr1) AS ?tot) {{
      ?p1 a o:PT ; o:label ?l1 .
      ?o1 o:product ?p1 ; o:price ?pr1 .
    }}
  }}
}}
"""


def assert_engines_match(query, graph):
    analytical = to_analytical(query)
    expected = canonical_rows(make_engine("reference").execute(analytical, graph).rows)
    for engine in PAPER_ENGINES:
        for representation in ("factorized", "flat"):
            config = EngineConfig(representation=representation)
            report = make_engine(engine).execute(analytical, graph, config)
            assert canonical_rows(report.rows) == expected, (engine, representation)
    return expected


class TestModel:
    def test_optional_recorded_on_star(self):
        analytical = parse_analytical(GROUP_ON_OPTIONAL)
        product_star = analytical.subqueries[0].pattern.stars[0]
        assert len(product_star.optional_props) == 1
        (key,) = product_star.optional_props
        assert key.property == iri("discount")
        assert key not in product_star.required_props()

    def test_optional_variable_reuse_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                f"""
                PREFIX o: <{EX}>
                SELECT (COUNT(?d) AS ?c) {{
                  ?p a o:PT ; o:other ?d .
                  OPTIONAL {{ ?p o:discount ?d }}
                }}
                """
            )

    def test_multi_pattern_optional_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                f"""
                PREFIX o: <{EX}>
                SELECT (COUNT(?d) AS ?c) {{
                  ?p a o:PT .
                  OPTIONAL {{ ?p o:discount ?d . ?p o:until ?u }}
                }}
                """
            )

    def test_detached_optional_subject_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                f"""
                PREFIX o: <{EX}>
                SELECT (COUNT(?d) AS ?c) {{
                  ?p a o:PT .
                  OPTIONAL {{ ?q o:discount ?d }}
                }}
                """
            )

    def test_required_and_optional_same_property_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                f"""
                PREFIX o: <{EX}>
                SELECT (COUNT(?d) AS ?c) {{
                  ?p a o:PT ; o:discount ?x .
                  OPTIONAL {{ ?p o:discount ?d }}
                }}
                """
            )


class TestExecution:
    def test_group_on_optional_includes_null_group(self, discount_graph):
        expected = assert_engines_match(GROUP_ON_OPTIONAL, discount_graph)
        # Groups: d=5, d=7, d=9, and the unbound-discount group for p2.
        assert len(expected) == 4

    def test_count_skips_unbound_optional(self, discount_graph):
        analytical = to_analytical(COUNT_OPTIONAL)
        report = make_engine("reference").execute(analytical, discount_graph)
        values = {v.name: t.python_value() for v, t in report.rows[0].items()}
        # p0 contributes 2 offers x 1 discount, p1 2 x 2; p2's offers have
        # no discount binding.  Offers total: p0 2 + p1 4 (two discounts
        # double its offer rows) + p2 2.
        assert values == {"withDiscount": 6, "offers": 8}
        assert_engines_match(COUNT_OPTIONAL, discount_graph)

    def test_multi_grouping_with_optional_secondary(self, discount_graph):
        assert_engines_match(MULTI_GROUPING_OPTIONAL, discount_graph)

    @pytest.mark.parametrize(
        "condition, labels",
        [
            ('!BOUND(?d) || ?l = "l0"', {"l0", "l2"}),
            ('BOUND(?d) && ?l != "l0"', {"l1"}),
            ("!BOUND(?d)", {"l2"}),
        ],
    )
    def test_residual_filter_sees_an_unbound_optional_as_unbound(
        self, discount_graph, condition, labels
    ):
        """A filter over an OPTIONAL variable is never pushed into star
        formation — not even the single-variable one, which pushed down
        would drop every ``?d`` triple and then hold for every product:
        it is evaluated per solution, and ``BOUND`` must see a skipped
        OPTIONAL as absent from the bindings, not as a ``None`` value."""
        expected = assert_engines_match(
            f"""
            PREFIX o: <{EX}>
            SELECT ?l (COUNT(?pr) AS ?cnt) {{
              ?p a o:PT ; o:label ?l .
              OPTIONAL {{ ?p o:discount ?d }}
              ?o o:product ?p ; o:price ?pr .
              FILTER({condition})
            }} GROUP BY ?l
            """,
            discount_graph,
        )
        assert {dict(row)["l"].strip('"') for row in expected} == labels

    def test_rapid_analytics_cycle_count_unchanged(self, discount_graph):
        report = make_engine("rapid-analytics").execute(
            to_analytical(MULTI_GROUPING_OPTIONAL), discount_graph
        )
        assert report.cycles == 3  # OPTIONAL costs no extra cycles


@st.composite
def optional_graphs(draw):
    graph = Graph()
    for index in range(draw(st.integers(0, 4))):
        product = iri(f"p{index}")
        graph.add(Triple(product, RDF_TYPE, iri("PT")))
        graph.add(Triple(product, iri("label"), Literal(f"l{index}")))
        for value in draw(st.lists(st.integers(1, 4), max_size=2)):
            graph.add(Triple(product, iri("discount"), Literal.from_python(value)))
        for offer_index in range(draw(st.integers(0, 2))):
            offer = iri(f"o{index}_{offer_index}")
            graph.add(Triple(offer, iri("product"), product))
            graph.add(Triple(offer, iri("price"), Literal.from_python(draw(st.integers(1, 99)))))
    return graph


MULTI_ANALYTICAL = to_analytical(MULTI_GROUPING_OPTIONAL)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=optional_graphs())
def test_optional_property_random_graphs(graph):
    expected = Counter(
        frozenset((v.name, str(t)) for v, t in row.items())
        for row in make_engine("reference").execute(MULTI_ANALYTICAL, graph).rows
    )
    for engine in PAPER_ENGINES:
        report = make_engine(engine).execute(MULTI_ANALYTICAL, graph)
        actual = Counter(
            frozenset((v.name, str(t)) for v, t in row.items()) for row in report.rows
        )
        assert actual == expected, engine
