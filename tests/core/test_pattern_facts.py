"""Query patterns pin their derived facts (DESIGN.md §7.3's memo idiom).

A star's ``props`` / ``required_props`` / ``variables`` / ``type_keys``,
a graph pattern's ``variables`` / ``star_joins`` / ``is_connected`` and a
triple pattern's ``variables`` and property key are computed once per
pattern object and pinned in hidden cache slots.  Each pinned fact must
be what a derivation from the fields, written out below the slow and
obvious way, gives; the slots must stay invisible to ``==``, ``hash``,
``repr`` and ``dataclasses.replace``; and a fact whose derivation fails
must fail on every call, never be pinned.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_model import GraphPattern, PropKey, StarJoin, StarPattern, prop_key_of
from repro.errors import UnsupportedQueryError
from repro.perf import reference_mode
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import RDF_TYPE, TriplePattern
from tests.ntga.strategies import memo_slots, stars


@st.composite
def graph_patterns(draw):
    """One to three stars, drawn as the NTGA tests draw them: variables
    shared within and across stars, subject-object links, OPTIONALs."""
    return GraphPattern(tuple(draw(stars(index)) for index in range(draw(st.integers(1, 3)))))


# -- the derivations, from the fields ------------------------------------------


def components_variables(patterns) -> set:
    return {
        c for tp in patterns for c in (tp.subject, tp.property, tp.object) if isinstance(c, Variable)
    }


def key_of(tp: TriplePattern) -> PropKey:
    if tp.property == RDF_TYPE and not isinstance(tp.object, Variable):
        return PropKey(tp.property, tp.object)
    return PropKey(tp.property)


def derived_star_facts(star: StarPattern) -> dict:
    props = {key_of(tp) for tp in star.patterns}
    return {
        "props": props,
        "required_props": props - set(star.optional_props),
        "variables": components_variables(star.patterns),
        "type_keys": {key for key in props if key.type_object is not None},
    }


def derived_joins(pattern: GraphPattern) -> tuple:
    joins = []
    for i, left in enumerate(pattern.stars):
        for j in range(i + 1, len(pattern.stars)):
            right = pattern.stars[j]
            shared = components_variables(left.patterns) & components_variables(right.patterns)
            for variable in sorted(shared, key=lambda v: v.name):
                left_tp, right_tp = (
                    [tp for tp in star.patterns if variable in components_variables([tp])][0]
                    for star in (left, right)
                )
                joins.append(StarJoin(i, j, variable, left_tp, right_tp))
    return tuple(joins)


def derived_connected(pattern: GraphPattern) -> bool:
    reached = {0}
    for _ in pattern.stars:
        for i, left in enumerate(pattern.stars):
            for j, right in enumerate(pattern.stars):
                shared = components_variables(left.patterns) & components_variables(right.patterns)
                if i in reached and shared:
                    reached.add(j)
    return len(reached) == len(pattern.stars)


STAR_FACTS = ("props", "required_props", "variables", "type_keys")
PATTERN_FACTS = ("variables", "star_joins", "is_connected")


def star_facts(star: StarPattern) -> dict:
    return {name: getattr(star, name)() for name in STAR_FACTS}


def pattern_facts(pattern: GraphPattern) -> dict:
    return {name: getattr(pattern, name)() for name in PATTERN_FACTS}


# -- each pinned fact is the derived fact --------------------------------------


@settings(max_examples=200, deadline=None)
@given(graph_patterns())
def test_each_pinned_fact_is_the_derived_fact(pattern):
    for star in pattern.stars:
        first, again = star_facts(star), star_facts(star)
        assert first == derived_star_facts(star)
        assert all(again[name] is first[name] for name in STAR_FACTS)  # pinned
        for tp in star.patterns:
            assert tp.variables() == components_variables([tp])
            assert tp.variables() is tp.variables()
            assert prop_key_of(tp) == key_of(tp) and prop_key_of(tp) is prop_key_of(tp)
    first, again = pattern_facts(pattern), pattern_facts(pattern)
    assert first["variables"] == components_variables(pattern.triple_patterns())
    assert first["star_joins"] == derived_joins(pattern)
    assert first["is_connected"] == derived_connected(pattern)
    assert all(again[name] is first[name] for name in PATTERN_FACTS)


# -- the slots stay hidden -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graph_patterns())
def test_eq_hash_repr_and_replace_do_not_see_the_slots(pattern):
    with reference_mode():
        # Under reference mode nothing is pinned: a cold twin.
        cold = GraphPattern(
            tuple(StarPattern(s.subject, s.patterns, s.optional_props) for s in pattern.stars)
        )
        pattern_facts(cold)
        for star in cold.stars:
            star_facts(star)
    assert all(memo is None for memo in memo_slots(cold).values())
    assert all(memo is None for star in cold.stars for memo in memo_slots(star).values())

    pattern_facts(pattern)
    for star in pattern.stars:
        star_facts(star)
        assert all(memo is not None for memo in memo_slots(star).values())
        assert not hasattr(star, "__dict__")
    assert all(memo is not None for memo in memo_slots(pattern).values())
    assert not hasattr(pattern, "__dict__")

    assert pattern == cold and hash(pattern) == hash(cold) and repr(pattern) == repr(cold)
    for warm_star, cold_star in zip(pattern.stars, cold.stars):
        assert warm_star == cold_star and hash(warm_star) == hash(cold_star)
        assert repr(warm_star) == repr(cold_star)
    # (A deep copy rebuilds each frozenset, whose repr may then list its
    # members in another order: equality is the contract here.)
    clone = copy.deepcopy(pattern)
    assert clone == cold and hash(clone) == hash(cold)
    assert pattern_facts(clone) == pattern_facts(cold)

    # ``replace`` builds from the fields alone: a pattern with fewer stars
    # derives its own facts instead of inheriting the pinned ones.
    smaller = replace(pattern, stars=pattern.stars[:1])
    assert all(memo is None for memo in memo_slots(smaller).values())
    assert pattern_facts(smaller) == {
        "variables": components_variables(smaller.triple_patterns()),
        "star_joins": (),
        "is_connected": True,
    }
    star = pattern.stars[0]
    assert replace(star) == star and star_facts(replace(star)) == derived_star_facts(star)


def test_a_triple_patterns_slots_stay_hidden():
    cold = TriplePattern(Variable("s"), IRI("urn:p"), Variable("o"))
    warm = TriplePattern(Variable("s"), IRI("urn:p"), Variable("o"))
    warm.variables(), prop_key_of(warm)
    assert all(memo is not None for memo in memo_slots(warm).values())
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert memo_slots(replace(warm, object=Variable("x"))) == {"_variables": None, "_key": None}
    assert replace(warm, object=Variable("x")).variables() == {Variable("s"), Variable("x")}


# -- a failing derivation is never pinned --------------------------------------


def test_an_unbound_property_pattern_raises_on_every_call():
    tp = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
    for _ in range(3):
        with pytest.raises(UnsupportedQueryError, match="unbound-property"):
            prop_key_of(tp)
        assert tp._key is None
    with pytest.raises(UnsupportedQueryError, match="unbound-property"):
        StarPattern(Variable("s"), (TriplePattern(Variable("s"), IRI("urn:p"), Variable("o")), tp))
