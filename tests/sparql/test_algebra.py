"""SPARQL shapes through the analytical door: the query every engine,
the reference included, evaluates (:func:`parse_analytical`), or the
typed error a shape outside the analytical subset is rejected with."""

import pytest

from repro.core.query_model import AggregateSpec, parse_analytical
from repro.errors import UnsupportedQueryError
from repro.rdf.terms import Variable
from repro.sparql.expressions import BinaryExpr, VarExpr

X, G, C = Variable("x"), Variable("g"), Variable("c")


def test_bgp_merging_across_statements():
    text = "SELECT (COUNT(?z) AS ?c) { ?s <urn:p> ?o . ?o <urn:q> ?z }"
    (subquery,) = parse_analytical(text).subqueries
    assert [len(star.patterns) for star in subquery.pattern.stars] == [1, 1]
    assert len(subquery.pattern.star_joins()) == 1


def test_filter_applies_after_group_members():
    text = "SELECT (COUNT(?x) AS ?c) { FILTER(?x > 1) ?s <urn:p> ?x . }"
    (subquery,) = parse_analytical(text).subqueries
    (condition,) = subquery.pattern.filters
    assert isinstance(condition, BinaryExpr) and condition.left == VarExpr(X)
    assert len(subquery.pattern.triple_patterns()) == 1


def test_optional_becomes_left_join():
    (subquery,) = parse_analytical(
        "SELECT (COUNT(?y) AS ?c) { ?s <urn:p> ?x OPTIONAL { ?s <urn:q> ?y } }"
    ).subqueries
    (star,) = subquery.pattern.stars
    assert [star.is_optional(pattern) for pattern in star.patterns] == [False, True]


def test_grouped_query_builds_aggregate():
    query = parse_analytical(
        "SELECT ?g (COUNT(?x) AS ?c) { ?s <urn:p> ?x ; <urn:g> ?g } GROUP BY ?g"
    )
    (subquery,) = query.subqueries
    assert subquery.group_by == (G,)
    assert subquery.aggregates == (AggregateSpec(C, "COUNT", X),)
    assert query.projection == (G, C)


def test_implicit_group_by_all():
    (subquery,) = parse_analytical("SELECT (COUNT(?x) AS ?c) { ?s <urn:p> ?x }").subqueries
    assert subquery.group_by == ()


def test_expression_projection_becomes_extend():
    query = parse_analytical(
        "SELECT ?g (?c + 1 AS ?y) "
        "{ { SELECT ?g (COUNT(?x) AS ?c) { ?s <urn:p> ?x ; <urn:g> ?g } GROUP BY ?g } }"
    )
    assert query.projection == (G, Variable("y"))
    ((alias, expression),) = query.outer_extends
    assert alias == Variable("y") and expression.left == VarExpr(C)


def test_distinct_order_slice_wrapping():
    query = parse_analytical(
        "SELECT DISTINCT ?x (COUNT(?s) AS ?c) { ?s <urn:p> ?x } GROUP BY ?x "
        "ORDER BY ?x LIMIT 5 OFFSET 2"
    )
    assert query.distinct
    assert (query.limit, query.offset) == (5, 2)
    assert [condition.expression for condition in query.order_by] == [VarExpr(X)]


def test_select_star_with_grouping_rejected():
    with pytest.raises(UnsupportedQueryError):
        parse_analytical("SELECT * { ?s <urn:p> ?x } GROUP BY ?x")


def test_ungrouped_aggregate_mix_rejected():
    with pytest.raises(UnsupportedQueryError):
        parse_analytical(
            "SELECT ?other (COUNT(?x) AS ?c) { ?s <urn:p> ?x ; <urn:q> ?other } GROUP BY ?g"
        )


def test_having_becomes_filter():
    (subquery,) = parse_analytical(
        "SELECT ?g (COUNT(?x) AS ?c) { ?s <urn:p> ?x ; <urn:g> ?g } GROUP BY ?g HAVING (?c > 1)"
    ).subqueries
    assert isinstance(subquery.having, BinaryExpr) and subquery.having.left == VarExpr(C)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ?s { { ?s <urn:p> ?x } UNION { ?s <urn:q> ?x } }",
        "SELECT (COUNT(?x) AS ?c) { { ?s <urn:p> ?x } UNION { ?s <urn:q> ?x } }",
        "SELECT (?x + 1 AS ?y) ?x { ?s <urn:p> ?x }",
    ],
    ids=["union", "union-in-a-group", "ungrouped-projection"],
)
def test_shapes_outside_the_analytical_subset_are_rejected(text):
    with pytest.raises(UnsupportedQueryError):
        parse_analytical(text)
