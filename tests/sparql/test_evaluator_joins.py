"""Unit and property tests for the solution-mapping combinators and BGP
matching in the reference evaluator."""

from collections import Counter
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.sparql.evaluator import (
    compatible,
    evaluate_bgp,
    hash_join,
    left_join,
    merge_rows,
)
from tests.sparql.test_bgp_walk import as_lists, substitute_and_bind_bgp

A, B, C = Variable("a"), Variable("b"), Variable("c")


def lit(value):
    return Literal.from_python(value)


class TestCompatible:
    def test_disjoint_rows_compatible(self):
        assert compatible({A: lit(1)}, {B: lit(2)})

    def test_agreeing_shared_variable(self):
        assert compatible({A: lit(1), B: lit(2)}, {A: lit(1)})

    def test_conflicting_shared_variable(self):
        assert not compatible({A: lit(1)}, {A: lit(2)})


class TestHashJoin:
    def test_cartesian_when_no_shared_vars(self):
        left = [{A: lit(1)}, {A: lit(2)}]
        right = [{B: lit(9)}]
        assert len(hash_join(left, right)) == 2

    def test_joins_on_shared_key(self):
        left = [{A: lit(1), B: lit(10)}, {A: lit(2), B: lit(20)}]
        right = [{A: lit(1), C: lit(100)}, {A: lit(3), C: lit(300)}]
        joined = hash_join(left, right)
        assert joined == [{A: lit(1), B: lit(10), C: lit(100)}]

    def test_multiset_semantics(self):
        left = [{A: lit(1)}, {A: lit(1)}]
        right = [{A: lit(1), B: lit(9)}]
        assert len(hash_join(left, right)) == 2

    def test_empty_inputs(self):
        assert hash_join([], [{A: lit(1)}]) == []
        assert hash_join([{A: lit(1)}], []) == []

    def test_partial_binding_falls_back_to_nested_loop(self):
        # One right row lacks the shared variable (OPTIONAL output).
        left = [{A: lit(1)}]
        right = [{A: lit(1), B: lit(9)}, {B: lit(8)}]
        joined = hash_join(left, right)
        assert {frozenset(r.items()) for r in joined} == {
            frozenset({(A, lit(1)), (B, lit(9))}),
            frozenset({(A, lit(1)), (B, lit(8))}),
        }


class TestLeftJoin:
    def test_unmatched_left_rows_survive(self):
        left = [{A: lit(1)}, {A: lit(2)}]
        right = [{A: lit(1), B: lit(9)}]
        joined = left_join(left, right)
        assert {frozenset(r.items()) for r in joined} == {
            frozenset({(A, lit(1)), (B, lit(9))}),
            frozenset({(A, lit(2))}),
        }


def _brute_force_bgp(patterns, graph):
    """All assignments over observed terms, checked pattern by pattern."""
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    terms = set()
    for triple in graph:
        terms.update([triple.subject, triple.property, triple.object])
    solutions = []
    for assignment in iter_product(sorted(terms, key=str), repeat=len(variables)):
        binding = dict(zip(variables, assignment))

        def resolve(component):
            return binding.get(component, component)

        if all(
            Triple(resolve(p.subject), resolve(p.property), resolve(p.object)) in graph
            for p in patterns
        ):
            solutions.append(binding)
    return solutions


_small_triples = st.lists(
    st.tuples(
        st.sampled_from(["urn:s1", "urn:s2", "urn:s3"]),
        st.sampled_from(["urn:p1", "urn:p2"]),
        st.sampled_from(["urn:s1", "urn:o1", "urn:o2"]),
    ),
    min_size=0,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(triples=_small_triples, pattern_shape=st.integers(0, 3))
def test_bgp_matches_brute_force(triples, pattern_shape):
    graph = Graph(Triple(IRI(s), IRI(p), IRI(o)) for s, p, o in triples)
    shapes = [
        [TriplePattern(A, IRI("urn:p1"), B)],
        [TriplePattern(A, IRI("urn:p1"), B), TriplePattern(B, IRI("urn:p2"), C)],
        [TriplePattern(A, IRI("urn:p1"), B), TriplePattern(A, IRI("urn:p2"), C)],
        [TriplePattern(A, IRI("urn:p1"), A)],
    ]
    patterns = shapes[pattern_shape]
    expected = Counter(frozenset(row.items()) for row in _brute_force_bgp(patterns, graph))
    actual = evaluate_bgp(patterns, graph)
    assert Counter(frozenset(row.items()) for row in actual) == expected
    assert as_lists(actual) == as_lists(substitute_and_bind_bgp(patterns, graph))


def test_merge_rows_right_precedence_is_irrelevant_for_compatible():
    left, right = {A: lit(1)}, {B: lit(2)}
    merged = merge_rows(left, right)
    assert merged == {A: lit(1), B: lit(2)}
    assert left == {A: lit(1)}  # inputs untouched
