"""Unit tests for the triplegroup data model and binding expansion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_model import PropKey, StarPattern, prop_key_of
from repro.errors import ReproError
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    TripleGroup,
    equivalence_class,
    group_by_subject,
    joined_solutions,
    star_solutions,
)
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple, TriplePattern

S1 = IRI("urn:s1")
PF, PC, TY = IRI("urn:pf"), IRI("urn:pc"), RDF_TYPE
PT = IRI("urn:PT1")


def tg(subject, *pairs):
    return TripleGroup(subject, tuple(Triple(subject, p, o) for p, o in pairs))


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
# The oracle below is BGP matching written the slow, obvious way: every
# pattern is tried against every triple of the group, solution by
# solution.  It knows nothing of plans, steps, columns or in-place
# extension.  The comparison includes order: of the solutions, and of the
# keys inside each.


def naive_star(star, group, fixed=()):
    fixed = dict(fixed)

    def agrees(variable, term, solution):
        return solution.get(variable, fixed.get(variable, term)) == term

    if not isinstance(star.subject, Variable):
        solutions = [{}] if star.subject == group.subject else []
    elif agrees(star.subject, group.subject, {}):
        solutions = [{star.subject: group.subject}]
    else:
        solutions = []
    for pattern in star.patterns:
        objects = [t.object for t in group.triples if t.property == pattern.property]
        extended = []
        for solution in solutions:
            if isinstance(pattern.object, Variable):
                matches = [
                    {**solution, pattern.object: o}
                    for o in objects
                    if agrees(pattern.object, o, solution)
                ]
            else:
                matches = [solution] if pattern.object in objects else []
            if not matches and prop_key_of(pattern) in star.optional_props:
                matches = [solution]
            extended += matches
        solutions = extended
    return [
        {**s, **{v: t for v, t in fixed.items() if v not in s}} for s in solutions
    ]


def naive_joined(stars, components, fixed):
    """*components* holds one flat triplegroup per star, in star order."""
    merged = [{}]
    for star, group in zip(stars, components):
        merged = [
            {**left, **{v: t for v, t in right.items() if v not in left}}
            for left in merged
            for right in naive_star(star, group, fixed)
            if all(left.get(v, t) == t for v, t in right.items())
        ]
    return merged


def ordered(solutions):
    return [list(solution.items()) for solution in solutions]


_PROPS = [IRI(f"urn:p{i}") for i in range(3)]
_OPTIONAL_PROPS = [IRI(f"urn:q{i}") for i in range(2)]
_OBJECTS = [IRI(f"urn:o{i}") for i in range(3)] + [Literal("7"), PT, IRI("urn:PT2")]
_SUBJECTS = [IRI(f"urn:s{i}") for i in range(3)]
_SHARED_VARS = [Variable(name) for name in "xyz"]


@st.composite
def _stars(draw, index=0):
    """A star whose object variables come from a pool shared by every
    star drawn (so variables repeat within a star and across stars) or
    from its own subject; OPTIONAL patterns sit on dedicated properties
    with private variables, as the query model guarantees."""
    subject = draw(
        st.one_of(st.just(Variable(f"s{index}")), st.sampled_from(_SUBJECTS[:2]))
    )
    pool = _SHARED_VARS + ([subject] if isinstance(subject, Variable) else [])
    required = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(_PROPS), st.sampled_from(pool + _OBJECTS)),
                st.tuples(st.just(TY), st.sampled_from([PT, IRI("urn:PT2")] + pool)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    optional = [
        (p, draw(st.sampled_from([Variable(f"opt{index}{p.value[-1]}"), _OBJECTS[0]])))
        for p in draw(st.lists(st.sampled_from(_OPTIONAL_PROPS), max_size=2, unique=True))
    ]
    patterns = list(required)
    for pattern in optional:
        patterns.insert(draw(st.integers(0, len(patterns))), pattern)
    return StarPattern(
        subject,
        tuple(TriplePattern(subject, p, o) for p, o in patterns),
        frozenset(PropKey(p) for p, _ in optional),
    )


@st.composite
def _groups(draw, star=None):
    """A triplegroup; given a *star*, one that tends to match it (random
    groups almost never do): a triple or two per pattern, plus noise."""
    subject = draw(st.sampled_from(_SUBJECTS))
    likely = []
    if star is not None:
        if not isinstance(star.subject, Variable) and draw(st.integers(0, 9)):
            subject = star.subject
        for pattern in star.patterns:
            values = [pattern.object] if not isinstance(pattern.object, Variable) else _OBJECTS
            for _ in range(draw(st.sampled_from([1, 1, 1, 2, 0]))):
                likely.append((pattern.property, draw(st.sampled_from(values))))
    noise = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_PROPS + _OPTIONAL_PROPS + [TY]),
                st.sampled_from(_OBJECTS + _SUBJECTS),
            ),
            max_size=4,
        )
    )
    # An RDF graph is a set of triples: no duplicates within a group.
    return tg(subject, *dict.fromkeys(draw(st.permutations(likely + noise))))


def _fixed_for(draw, stars, groups):
    """Bindings for some of the stars' non-OPTIONAL variables (and one
    no star mentions): most to a value the data offers that variable,
    some to one that rejects."""
    offered = {Variable("elsewhere"): []}
    for star, group in zip(stars, groups):
        if isinstance(star.subject, Variable):
            offered.setdefault(star.subject, []).append(group.subject)
        for pattern in star.patterns:
            if isinstance(pattern.object, Variable) and not pattern.object.name.startswith("opt"):
                offered.setdefault(pattern.object, []).extend(
                    t.object for t in group.triples if t.property == pattern.property
                )
    chosen = draw(
        st.lists(
            st.sampled_from(sorted(offered, key=lambda v: v.name)), max_size=3, unique=True
        )
    )
    return tuple(
        (variable, draw(st.sampled_from(offered[variable] * 4 + _OBJECTS + _SUBJECTS)))
        for variable in chosen
    )


def _factorized(draw, star, group):
    """*group* as the star filter would ship it: columns over a schema
    covering the star's keys -- with a type-qualified key sometimes
    served by a plain ``rdf:type`` column instead of its own."""
    keys = set(star.props()) | {PropKey(p) for p in draw(st.sets(st.sampled_from(_PROPS)))}
    if draw(st.booleans()):
        keys = {PropKey(TY) if key.type_object is not None else key for key in keys}
    keys = frozenset(keys)
    return FactorizedRelation.from_triplegroup(group.project(keys), schema_for(keys))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_star_expansion_equals_naive_oracle(data):
    star = data.draw(_stars())
    group = data.draw(_groups(star))
    fixed = _fixed_for(data.draw, (star,), (group,))
    expected = ordered(naive_star(star, group, fixed))
    assert ordered(star_solutions(star, group, dict(fixed))) == expected
    factorized = _factorized(data.draw, star, group)
    assert ordered(star_solutions(star, factorized, dict(fixed))) == expected


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_compiled_joined_expansion_equals_naive_oracle(data):
    stars = tuple(
        data.draw(_stars(index)) for index in range(data.draw(st.integers(1, 3)))
    )
    groups = [data.draw(_groups(star)) for star in stars]
    fixed = _fixed_for(data.draw, stars, groups)
    expected = ordered(naive_joined(stars, groups, fixed))

    # Components sit at shuffled indices, beside one no star reads.
    indices = data.draw(st.permutations(range(len(stars) + 1)))[: len(stars)]
    star_indices = dict(enumerate(indices))
    spare = (max(indices) + 1, data.draw(_groups()))
    for components in (
        groups,
        [_factorized(data.draw, star, group) for star, group in zip(stars, groups)],
    ):
        joined = JoinedTripleGroup(tuple(zip(indices, components)) + (spare,), fixed)
        assert ordered(joined_solutions(stars, joined, star_indices)) == expected
