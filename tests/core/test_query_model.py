"""Unit tests for the analytical query model."""

import pytest

from repro.core.query_model import (
    AnalyticalQuery,
    GraphPattern,
    PropKey,
    StarPattern,
    decompose_stars,
    from_select_query,
    parse_analytical,
    prop_key_of,
)
from repro.errors import PlanningError, UnsupportedQueryError
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import RDF_TYPE, TriplePattern
from repro.sparql.parser import parse_query

P1, P2, P3 = IRI("urn:p1"), IRI("urn:p2"), IRI("urn:p3")
S, T, O = Variable("s"), Variable("t"), Variable("o")


def tp(subject, prop, obj):
    return TriplePattern(subject, prop, obj)


class TestPropKey:
    def test_plain_property(self):
        assert prop_key_of(tp(S, P1, O)) == PropKey(P1)

    def test_type_with_concrete_class(self):
        key = prop_key_of(tp(S, RDF_TYPE, IRI("urn:C")))
        assert key.type_object == IRI("urn:C")
        assert "C" in key.short()

    def test_type_with_variable_class(self):
        key = prop_key_of(tp(S, RDF_TYPE, O))
        assert key.type_object is None

    def test_unbound_property_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            prop_key_of(tp(S, Variable("p"), O))


class TestStarPattern:
    def test_props(self):
        star = StarPattern(S, (tp(S, P1, O), tp(S, P2, Variable("o2"))))
        assert star.props() == frozenset({PropKey(P1), PropKey(P2)})

    def test_subject_mismatch_rejected(self):
        with pytest.raises(PlanningError):
            StarPattern(S, (tp(T, P1, O),))

    def test_empty_rejected(self):
        with pytest.raises(PlanningError):
            StarPattern(S, ())

    def test_pattern_for(self):
        pattern = tp(S, P1, O)
        star = StarPattern(S, (pattern,))
        assert star.pattern_for(PropKey(P1)) is pattern
        with pytest.raises(PlanningError):
            star.pattern_for(PropKey(P2))

    def test_type_keys(self):
        star = StarPattern(S, (tp(S, RDF_TYPE, IRI("urn:C")), tp(S, P1, O)))
        assert star.type_keys() == frozenset({PropKey(RDF_TYPE, IRI("urn:C"))})


class TestDecomposeStars:
    def test_groups_by_subject_in_order(self):
        patterns = [tp(S, P1, T), tp(T, P2, O), tp(S, P3, O)]
        stars = decompose_stars(patterns)
        assert len(stars) == 2
        assert stars[0].subject == S and len(stars[0]) == 2
        assert stars[1].subject == T


class TestGraphPattern:
    def _two_star(self):
        star1 = StarPattern(S, (tp(S, P1, T),))
        star2 = StarPattern(T, (tp(T, P2, O),))
        return GraphPattern((star1, star2))

    def test_star_joins(self):
        joins = self._two_star().star_joins()
        assert len(joins) == 1
        assert joins[0].variable == T

    def test_connectivity(self):
        assert self._two_star().is_connected()
        disconnected = GraphPattern(
            (
                StarPattern(S, (tp(S, P1, O),)),
                StarPattern(T, (tp(T, P2, Variable("z")),)),
            )
        )
        assert not disconnected.is_connected()


class TestAnalyticalDecomposition:
    def test_single_grouping(self):
        query = parse_analytical(
            "SELECT ?g (COUNT(?x) AS ?c) { ?s <urn:p1> ?x ; <urn:g> ?g } GROUP BY ?g"
        )
        assert len(query.subqueries) == 1
        assert not query.is_multi_grouping()
        assert query.subqueries[0].group_by == (Variable("g"),)
        assert query.projection == (Variable("g"), Variable("c"))

    def test_multi_grouping(self, mg1_style_query):
        query = parse_analytical(mg1_style_query)
        assert query.is_multi_grouping()
        assert len(query.subqueries) == 2
        assert query.subqueries[0].group_by == (Variable("f"),)
        assert query.subqueries[1].group_by == ()

    def test_outer_expression_extends(self):
        query = parse_analytical(
            """
            SELECT ?r {
              { SELECT (SUM(?x) AS ?a) { ?s <urn:p1> ?x } }
              { SELECT (SUM(?y) AS ?b) { ?t <urn:p2> ?y } }
            }
            """.replace("?r {", "(?a / ?b AS ?r) {")
        )
        assert len(query.outer_extends) == 1

    def test_group_by_all_subquery(self, mg1_style_query):
        query = parse_analytical(mg1_style_query)
        roll_up = query.subqueries[1]
        assert roll_up.group_by == ()
        assert {a.func for a in roll_up.aggregates} == {"SUM", "COUNT"}

    def test_mixing_subselects_and_triples_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                """
                SELECT ?c { ?s <urn:p1> ?o .
                  { SELECT (COUNT(?x) AS ?c) { ?t <urn:p2> ?x } }
                }
                """
            )

    def test_non_grouped_query_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical("SELECT ?s { ?s <urn:p1> ?o }")

    def test_projection_of_unknown_variable_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical(
                "SELECT ?zz { { SELECT (COUNT(?x) AS ?c) { ?s <urn:p1> ?x } } }"
            )

    def test_aggregate_over_expression_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            parse_analytical("SELECT (SUM(?x + 1) AS ?c) { ?s <urn:p1> ?x }")

    def test_filters_collected_on_pattern(self):
        query = parse_analytical(
            "SELECT (COUNT(?x) AS ?c) { ?s <urn:p1> ?x . FILTER(?x > 3) }"
        )
        assert len(query.subqueries[0].pattern.filters) == 1

    def test_from_select_query_matches_parse(self, mg1_style_query):
        parsed = parse_query(mg1_style_query)
        assert isinstance(from_select_query(parsed), AnalyticalQuery)
