"""Unit tests for the triplegroup data model and binding expansion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query_model import PropKey, StarPattern, prop_key_of
from repro.errors import ReproError
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    JoinPlan,
    TripleGroup,
    equivalence_class,
    group_by_subject,
    joined_solutions,
    star_solutions,
)
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern
from tests.ntga import strategies
from tests.ntga.strategies import (
    PT,
    TY,
    assert_memos_stay_hidden,
    decoded,
    naive_joined,
    naive_star,
    tg,
)

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


class TestMemos:
    """One memo idiom: hidden slots on frozen records (DESIGN.md §7.3)."""

    def test_triplegroup(self):
        keys = frozenset({PropKey(PF), PropKey(TY, PT)})

        def fill(group):
            group.props()
            group.objects_for(PropKey(PF))
            group.project(keys)
            group.estimated_size()
            group.factorized_size()
            FactorizedRelation.from_triplegroup(group, schema_for(keys))

        assert_memos_stay_hidden(
            lambda: tg(S1, (TY, PT), (PF, IRI("urn:f1")), (PC, Literal("5"))), fill
        )

    def test_joined_triplegroup(self):
        def fill(joined):
            joined.props()
            joined.estimated_size()

        assert_memos_stay_hidden(
            lambda: JoinedTripleGroup(
                ((0, tg(S1, (PF, IRI("urn:f1")))), (1, tg(IRI("urn:s2"), (PC, Literal("5"))))),
                ((Variable("j"), IRI("urn:f1")),),
            ),
            fill,
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_prop_key_a_record_reports_is_the_interned_one(data):
    """``props()`` of a group, of its projections and of its factorized
    form hold *the* key ``prop_key_of`` hands the planner, so the subset
    tests between them are identity hits; a key built by hand is another
    instance that still equals it."""
    star = data.draw(strategies.stars())
    group = data.draw(strategies.groups(star))
    fact = strategies.factorized(data.draw, star, group)
    some = frozenset(sorted(group.props(), key=str)[:2])
    records = [
        group,
        group.project(star.props()),
        group.project(some),
        fact,
        fact.project(some),
        JoinedTripleGroup(((0, group), (1, fact))),
    ]
    reported = [key for record in records for key in record.props()]
    for key in reported + list(fact.schema.keys) + list(star.props()):
        obj = Variable("o") if key.type_object is None else key.type_object
        assert key is prop_key_of(TriplePattern(Variable("s"), key.property, obj))
        twin = PropKey(key.property, key.type_object)
        assert twin is not key and twin == key and hash(twin) == hash(key)


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
        assert dict(merged.fixed) == {Variable("v"): S1}

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
# columns, slots or in-place extension.  Two things are compared with it:
# the rows ``JoinPlan.expand`` returns, decoded through ``JoinPlan.slots``
# (every row of plan width; a ``fixed`` variable the pattern never
# mentions has no slot, so the rows do not carry it), and the dict view
# (``star_solutions`` / ``joined_solutions``), which does carry it.  The
# order of the solutions is part of the contract.  The order of the keys
# inside a solution dict no longer is -- the view is a decode of a row,
# nothing in ``src/`` reads it -- so solutions are compared as mappings.


#: Values of a variable's triples in the joined test: some are subjects,
#: so a star's subject variable met as another star's object can match.
_LINKABLE = st.sampled_from(strategies.OBJECTS + strategies.SUBJECTS[:2])


def assert_rows_equal(plan, joined, expected):
    rows = plan.expand(joined)
    assert all(len(row) == len(plan.slots) for row in rows)
    assert decoded(rows, plan.slots) == [
        {variable: term for variable, term in solution.items() if variable in plan.slots}
        for solution in expected
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_star_expansion_equals_naive_oracle(data):
    star = data.draw(strategies.stars())
    group = data.draw(strategies.groups(star))
    fixed = strategies.fixed_for(data.draw, (star,), (group,))
    expected = naive_star(star, group, fixed)
    factorized = strategies.factorized(data.draw, star, group)
    for component in (group, factorized):
        assert star_solutions(star, component, dict(fixed)) == expected
        joined = JoinedTripleGroup.single(0, component, fixed)
        assert_rows_equal(JoinPlan((star,)), joined, expected)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_compiled_joined_expansion_equals_naive_oracle(data):
    stars = tuple(
        data.draw(strategies.stars(index)) for index in range(data.draw(st.integers(1, 3)))
    )
    groups = [data.draw(strategies.groups(star, objects=_LINKABLE)) for star in stars]
    fixed = strategies.fixed_for(data.draw, stars, groups)
    expected = naive_joined(stars, groups, fixed)

    # Components sit at shuffled indices, beside one no star reads.
    indices = data.draw(st.permutations(range(len(stars) + 1)))[: len(stars)]
    star_indices = dict(enumerate(indices))
    spare = (max(indices) + 1, data.draw(strategies.groups()))
    # One plan expands both records, as a job's plan does: what it
    # remembers of the first (component positions, the ``fixed`` layout,
    # the schema) must not leak into the second.
    plan = JoinPlan(stars, indices)
    for components in (
        groups,
        [strategies.factorized(data.draw, star, group) for star, group in zip(stars, groups)],
    ):
        joined = JoinedTripleGroup(tuple(zip(indices, components)) + (spare,), fixed)
        assert joined_solutions(stars, joined, star_indices) == expected
        assert_rows_equal(plan, joined, expected)


# Corners of the slot form the generator reaches rarely or -- OPTIONAL
# variables are private to their star there -- never.

P0, P1, Q0 = strategies.PROPS[0], strategies.PROPS[1], strategies.OPTIONAL_PROPS[0]
O0, O1 = strategies.OBJECTS[0], strategies.OBJECTS[1]
SA, SB = strategies.SUBJECTS[0], strategies.SUBJECTS[1]
A, B, X, W = (Variable(name) for name in ("a", "b", "x", "w"))


def star_of(subject, *pairs, optional=()):
    return StarPattern(
        subject,
        tuple(TriplePattern(subject, p, o) for p, o in pairs),
        frozenset(PropKey(p) for p in optional),
    )


class TestSlotRows:
    def expansions(self, stars, groups, fixed=()):
        """(plan, rows, dict view), the rows and the view checked against
        the oracle."""
        joined = JoinedTripleGroup(tuple(enumerate(groups)), tuple(fixed))
        expected = naive_joined(stars, groups, fixed)
        plan = JoinPlan(stars)
        assert_rows_equal(plan, joined, expected)
        view = joined_solutions(stars, joined)
        assert view == expected
        return plan, plan.expand(joined), view

    def test_fixed_variable_the_pattern_never_mentions(self):
        elsewhere = Variable("elsewhere")
        plan, rows, view = self.expansions(
            (star_of(A, (P0, X)),), [tg(SA, (P0, O0))], [(elsewhere, O1)]
        )
        assert elsewhere not in plan.slots
        assert rows == [[SA, O0]]  # no slot carries it ...
        assert view == [{A: SA, X: O0, elsewhere: O1}]  # ... the view does

    def test_fixed_value_on_an_optional_variable_whose_property_is_missing(self):
        _, rows, view = self.expansions(
            (star_of(A, (P0, X), (Q0, W), optional=(Q0,)),), [tg(SA, (P0, O0))], [(W, O1)]
        )
        assert rows == [[SA, O0, O1]]
        assert view == [{A: SA, X: O0, W: O1}]

    def test_optional_skipped_in_one_star_bound_by_the_next(self):
        stars = (star_of(A, (P0, X), (Q0, W), optional=(Q0,)), star_of(B, (P1, W)))
        _, rows, _ = self.expansions(stars, [tg(SA, (P0, O0)), tg(SB, (P1, O0), (P1, O1))])
        assert rows == [[SA, O0, O0, SB], [SA, O0, O1, SB]]
        # Bound by the first star after all: the second must agree.
        _, rows, _ = self.expansions(
            stars, [tg(SA, (P0, O0), (Q0, O1)), tg(SB, (P1, O0), (P1, O1))]
        )
        assert rows == [[SA, O0, O1, SB]]

    @pytest.mark.parametrize("subject_first", [True, False])
    def test_subject_of_one_star_is_object_of_another(self, subject_first):
        """?b is star B's subject and the object of star A's P0 -- and no
        ``fixed`` binding: rows are kept or dropped one by one."""
        stars = (star_of(A, (P0, B), (P1, X)), star_of(B, (P1, W)))
        groups = [tg(SA, (P0, SB), (P0, O0), (P1, O1)), tg(SB, (P1, O0))]
        if subject_first:
            stars, groups = stars[::-1], groups[::-1]
        _, _, view = self.expansions(stars, groups)
        assert view == [{A: SA, B: SB, X: O1, W: O0}]
        # Star B's group is about some other subject: nothing joins.
        groups[0 if subject_first else 1] = tg(strategies.SUBJECTS[2], (P1, O0))
        _, rows, _ = self.expansions(stars, groups)
        assert rows == []

    def test_variable_no_star_binds_reads_as_unbound(self):
        """``GROUP BY`` / aggregate / filter variables get their slot from
        the plan; one no star binds has a position that stays ``None``."""
        plan = JoinPlan((star_of(A, (P0, X)),))
        assert plan.slot(X) == 1
        nowhere = plan.slot(Variable("nowhere"))
        assert nowhere == 2 and plan.slot(Variable("nowhere")) == 2
        joined = JoinedTripleGroup.single(0, tg(SA, (P0, O0), (P0, O1)))
        assert plan.expand(joined) == [[SA, O0, None], [SA, O1, None]]
        assert plan.solutions(joined) == [{A: SA, X: O0}, {A: SA, X: O1}]

    def test_fanout_copies_rows(self):
        """Rows of one expansion share no storage: writing one leaves the
        others, and the next record's rows, alone."""
        plan = JoinPlan((star_of(A, (P0, X), (P1, W)),))
        joined = JoinedTripleGroup.single(0, tg(SA, (P0, O0), (P0, O1), (P1, O0), (P1, O1)))
        rows = plan.expand(joined)
        assert rows == [[SA, O0, O0], [SA, O0, O1], [SA, O1, O0], [SA, O1, O1]]
        rows[0][2] = None
        assert plan.expand(joined) == [[SA, O0, O0], [SA, O0, O1], [SA, O1, O0], [SA, O1, O1]]

    def test_one_plan_follows_a_changed_record_layout(self):
        """Component positions and the ``fixed`` layout are remembered
        from the last record, and corrected when a record differs."""
        stars = (star_of(A, (P0, X)), star_of(B, (P1, X)))
        plan = JoinPlan(stars, (4, 7))
        first, second = tg(SA, (P0, O0), (P0, O1)), tg(SB, (P1, O0), (P1, O1))
        spare = tg(SA)
        elsewhere = Variable("elsewhere")
        for components, fixed in (
            (((4, first), (7, second)), ((X, O0),)),
            (((4, first), (7, second)), ((elsewhere, O1),)),  # same length, another variable
            (((4, first), (7, second)), ((elsewhere, O1), (A, SB))),  # same start, longer
            (((9, spare), (7, second), (4, first)), ((elsewhere, O1), (X, O1))),
            (((7, second), (4, first)), ()),
        ):
            joined = JoinedTripleGroup(components, fixed)
            assert_rows_equal(plan, joined, naive_joined(stars, [first, second], fixed))
        assert plan.expand(JoinedTripleGroup(((4, first),))) == []
