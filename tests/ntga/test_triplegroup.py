"""Unit tests for the triplegroup data model and binding expansion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_model import PropKey, StarPattern
from repro.errors import ReproError
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    TripleGroup,
    equivalence_class,
    group_by_subject,
    joined_solutions,
    star_solutions,
)
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from tests.ntga import strategies
from tests.ntga.strategies import PT, TY, naive_joined, naive_star, ordered, tg

S1 = IRI("urn:s1")
PF, PC = IRI("urn:pf"), IRI("urn:pc")


class TestTripleGroup:
    def test_subject_consistency_enforced(self):
        with pytest.raises(ReproError):
            TripleGroup(S1, (Triple(IRI("urn:other"), PF, Literal("x")),))

    def test_props_with_type_qualification(self):
        group = tg(S1, (TY, PT), (PF, IRI("urn:f1")))
        assert group.props() == frozenset({PropKey(TY, PT), PropKey(PF)})

    def test_objects_for_plain(self):
        group = tg(S1, (PF, IRI("urn:f1")), (PF, IRI("urn:f2")), (PC, Literal("5")))
        assert set(group.objects_for(PropKey(PF))) == {IRI("urn:f1"), IRI("urn:f2")}

    def test_objects_for_typed(self):
        group = tg(S1, (TY, PT), (TY, IRI("urn:PT2")))
        assert group.objects_for(PropKey(TY, PT)) == (PT,)

    def test_project(self):
        group = tg(S1, (TY, PT), (PF, IRI("urn:f1")), (PC, Literal("5")))
        projected = group.project(frozenset({PropKey(PF)}))
        assert projected.props() == frozenset({PropKey(PF)})

    def test_project_typed_key_keeps_only_matching_class(self):
        group = tg(S1, (TY, PT), (TY, IRI("urn:PT2")))
        projected = group.project(frozenset({PropKey(TY, PT)}))
        assert len(projected) == 1

    def test_estimated_size_counts_subject_once(self):
        one = tg(S1, (PF, IRI("urn:f1")))
        two = tg(S1, (PF, IRI("urn:f1")), (PF, IRI("urn:f2")))
        # Adding a triple grows size by less than a full triple (subject shared).
        assert two.estimated_size() - one.estimated_size() < one.estimated_size()


def test_group_by_subject():
    triples = [
        Triple(S1, PF, IRI("urn:f1")),
        Triple(S1, PC, Literal("5")),
        Triple(IRI("urn:s2"), PF, IRI("urn:f2")),
    ]
    groups = {g.subject: g for g in group_by_subject(triples)}
    assert len(groups) == 2
    assert len(groups[S1]) == 2


def test_equivalence_class():
    group = tg(S1, (TY, PT), (PF, IRI("urn:f1")))
    assert equivalence_class(group) == frozenset({TY, PF})


class TestStarSolutions:
    def _star(self):
        return StarPattern(
            Variable("s"),
            (
                TriplePattern(Variable("s"), TY, PT),
                TriplePattern(Variable("s"), PF, Variable("f")),
            ),
        )

    def test_multi_valued_expansion(self):
        group = tg(S1, (TY, PT), (PF, IRI("urn:f1")), (PF, IRI("urn:f2")))
        solutions = star_solutions(self._star(), group)
        features = {s[Variable("f")] for s in solutions}
        assert features == {IRI("urn:f1"), IRI("urn:f2")}
        assert all(s[Variable("s")] == S1 for s in solutions)

    def test_missing_primary_no_solutions(self):
        group = tg(S1, (PF, IRI("urn:f1")))  # no type triple
        assert star_solutions(self._star(), group) == []

    def test_fixed_binding_restricts(self):
        group = tg(S1, (TY, PT), (PF, IRI("urn:f1")), (PF, IRI("urn:f2")))
        solutions = star_solutions(self._star(), group, {Variable("f"): IRI("urn:f2")})
        assert len(solutions) == 1
        assert solutions[0][Variable("f")] == IRI("urn:f2")

    def test_fixed_subject_mismatch(self):
        group = tg(S1, (TY, PT), (PF, IRI("urn:f1")))
        assert star_solutions(self._star(), group, {Variable("s"): IRI("urn:zz")}) == []

    def test_concrete_object_constraint(self):
        star = StarPattern(
            Variable("s"), (TriplePattern(Variable("s"), PF, IRI("urn:f1")),)
        )
        assert star_solutions(star, tg(S1, (PF, IRI("urn:f1")))) != []
        assert star_solutions(star, tg(S1, (PF, IRI("urn:f2")))) == []

    def test_repeated_object_variable_consistent(self):
        star = StarPattern(
            Variable("s"),
            (
                TriplePattern(Variable("s"), PF, Variable("x")),
                TriplePattern(Variable("s"), PC, Variable("x")),
            ),
        )
        shared = IRI("urn:same")
        group = tg(S1, (PF, shared), (PC, shared), (PC, Literal("other")))
        solutions = star_solutions(star, group)
        assert solutions == [{Variable("s"): S1, Variable("x"): shared}]


class TestJoinedTripleGroup:
    def test_component_lookup_and_merge(self):
        left = JoinedTripleGroup.single(0, tg(S1, (PF, IRI("urn:f1"))))
        right = JoinedTripleGroup.single(1, tg(IRI("urn:s2"), (PC, Literal("5"))))
        merged = left.merge(right, ((Variable("v"), S1),))
        assert merged.component(0) is not None
        assert merged.component(1) is not None
        assert merged.component(7) is None
        assert merged.fixed_bindings() == {Variable("v"): S1}

    def test_props_union(self):
        left = JoinedTripleGroup.single(0, tg(S1, (PF, IRI("urn:f1"))))
        right = JoinedTripleGroup.single(1, tg(IRI("urn:s2"), (PC, Literal("5"))))
        assert left.merge(right).props() == frozenset({PropKey(PF), PropKey(PC)})

    def test_joined_solutions_respect_fixed_join_value(self):
        """A multi-valued join property must not re-expand after pairing."""
        pub = tg(S1, (IRI("urn:gene"), IRI("urn:g1")), (IRI("urn:gene"), IRI("urn:g2")))
        gene = tg(IRI("urn:g1"), (IRI("urn:sym"), Literal("GENE1")))
        joined = JoinedTripleGroup(
            ((0, pub), (1, gene)), ((Variable("g"), IRI("urn:g1")),)
        )
        stars = (
            StarPattern(Variable("p"), (TriplePattern(Variable("p"), IRI("urn:gene"), Variable("g")),)),
            StarPattern(Variable("g"), (TriplePattern(Variable("g"), IRI("urn:sym"), Variable("sym")),)),
        )
        solutions = joined_solutions(stars, joined)
        assert len(solutions) == 1
        assert solutions[0][Variable("g")] == IRI("urn:g1")

    def test_joined_solutions_ignore_uncovered_components(self):
        """Expanding an original pattern skips the other pattern's stars."""
        pub = tg(S1, (PF, IRI("urn:f1")), (PF, IRI("urn:f2")))
        other = tg(IRI("urn:s2"), (PC, Literal("5")))
        joined = JoinedTripleGroup(((0, pub), (1, other)))
        stars = (StarPattern(Variable("p"), (TriplePattern(Variable("p"), PC, Variable("c")),)),)
        solutions = joined_solutions(stars, joined, {0: 1})
        assert len(solutions) == 1
        assert solutions[0][Variable("c")] == Literal("5")

    def test_joined_solutions_missing_component(self):
        joined = JoinedTripleGroup.single(0, tg(S1, (PF, IRI("urn:f1"))))
        stars = (StarPattern(Variable("x"), (TriplePattern(Variable("x"), PC, Variable("c")),)),)
        assert joined_solutions(stars, joined, {0: 5}) == []


# ---------------------------------------------------------------------------
# Differential: the compiled expansion against a naive oracle
# ---------------------------------------------------------------------------
#
# The oracle (``tests/ntga/strategies.py``) knows nothing of plans, steps,
# columns or in-place extension.  The comparison includes order: of the
# solutions, and of the keys inside each.


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_star_expansion_equals_naive_oracle(data):
    star = data.draw(strategies.stars())
    group = data.draw(strategies.groups(star))
    fixed = strategies.fixed_for(data.draw, (star,), (group,))
    expected = ordered(naive_star(star, group, fixed))
    assert ordered(star_solutions(star, group, dict(fixed))) == expected
    factorized = strategies.factorized(data.draw, star, group)
    assert ordered(star_solutions(star, factorized, dict(fixed))) == expected


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_compiled_joined_expansion_equals_naive_oracle(data):
    stars = tuple(
        data.draw(strategies.stars(index)) for index in range(data.draw(st.integers(1, 3)))
    )
    groups = [data.draw(strategies.groups(star)) for star in stars]
    fixed = strategies.fixed_for(data.draw, stars, groups)
    expected = ordered(naive_joined(stars, groups, fixed))

    # Components sit at shuffled indices, beside one no star reads.
    indices = data.draw(st.permutations(range(len(stars) + 1)))[: len(stars)]
    star_indices = dict(enumerate(indices))
    spare = (max(indices) + 1, data.draw(strategies.groups()))
    for components in (
        groups,
        [strategies.factorized(data.draw, star, group) for star, group in zip(stars, groups)],
    ):
        joined = JoinedTripleGroup(tuple(zip(indices, components)) + (spare,), fixed)
        assert ordered(joined_solutions(stars, joined, star_indices)) == expected
