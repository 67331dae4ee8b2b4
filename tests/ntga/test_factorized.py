"""Factorized answer representation: round-trips, sizing, order, context.

The hypothesis properties here are the PR's core guarantee: for
arbitrary star shapes, star solutions over the factorized relation
reproduce the flat ones bit-identically (values *and* order), and the
factorized encoding is never larger than the flat one — equal exactly
when every column has fanout <= 1.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ambient
from repro.core.query_model import PropKey, StarPattern
from repro.errors import ReproError
from repro.mapreduce.cost import CostModel
from repro.ntga.factorized import (
    DEFAULT_REPRESENTATION,
    FACTORIZED_COUNTERS,
    REPRESENTATIONS,
    FactorizedRelation,
    RowFactor,
    StarSchema,
    _compatible,
    active_representation,
    resolve_representation,
    schema_for,
    validate_representation,
)
from repro.ntga.triplegroup import TripleGroup, star_solutions
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import RDF_TYPE, Triple, TriplePattern
from tests.ntga.strategies import assert_memos_stay_hidden

SUBJECT = IRI("urn:s")


@st.composite
def star_group(draw):
    """An arbitrary star: 1-4 properties, each with fanout 1-3."""
    n_props = draw(st.integers(min_value=1, max_value=4))
    triples = []
    for p in range(n_props):
        prop = IRI(f"urn:p{p}")
        objects = draw(
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        triples.extend(Triple(SUBJECT, prop, IRI(f"urn:o{o}")) for o in objects)
    return TripleGroup(SUBJECT, tuple(triples))


def factorize(group: TripleGroup) -> FactorizedRelation:
    return FactorizedRelation.from_triplegroup(group, schema_for(group.props()))


class TestRoundTrip:
    @given(star_group())
    @settings(max_examples=200, deadline=None)
    def test_star_solutions_identical_through_duck_type(self, group):
        """The real operator path: expansion over the factorized relation
        must produce the same solutions in the same order as over the
        source triplegroup."""
        subject_var = Variable("s")
        star = StarPattern(
            subject_var,
            tuple(
                TriplePattern(subject_var, key.property, Variable(f"v{i}"))
                for i, key in enumerate(
                    sorted(group.props(), key=lambda k: k.property.value)
                )
            ),
        )
        fact = factorize(group)
        assert star_solutions(star, fact) == star_solutions(star, group)

    @given(star_group())
    @settings(max_examples=200, deadline=None)
    def test_surface_matches_triplegroup(self, group):
        fact = factorize(group)
        assert fact.subject == group.subject
        assert fact.props() == group.props()
        for key in group.props():
            assert fact.objects_for(key) == group.objects_for(key)
        assert fact.objects_for(PropKey(IRI("urn:absent"))) == ()


class TestSizing:
    @given(star_group())
    @settings(max_examples=200, deadline=None)
    def test_factorized_never_larger_equal_only_at_unit_fanout(self, group):
        fact = factorize(group)
        factorized = fact.estimated_size()
        flat = fact.flat_size()
        assert factorized <= flat
        max_fanout = max(
            (len(column) for column in fact.columns if column), default=0
        )
        if max_fanout <= 1:
            assert factorized == flat
        else:
            assert factorized < flat

    @given(star_group())
    @settings(max_examples=100, deadline=None)
    def test_triplegroup_factorized_size_matches_relation(self, group):
        """TripleGroup.factorized_size (the store/planner sizing) prices
        the same encoding FactorizedRelation actually ships."""
        assert group.factorized_size() == factorize(group).estimated_size()


class TestRdfType:
    def test_plain_type_column_reports_typed_keys(self):
        group = TripleGroup(
            SUBJECT,
            (
                Triple(SUBJECT, RDF_TYPE, IRI("urn:C1")),
                Triple(SUBJECT, RDF_TYPE, IRI("urn:C2")),
                Triple(SUBJECT, IRI("urn:p"), IRI("urn:o")),
            ),
        )
        schema = schema_for(
            frozenset({PropKey(RDF_TYPE), PropKey(IRI("urn:p"))})
        )
        fact = FactorizedRelation.from_triplegroup(group, schema)
        assert fact.props() == group.props()
        typed = PropKey(RDF_TYPE, IRI("urn:C1"))
        assert fact.objects_for(typed) == group.objects_for(typed)

    def test_projection_matches_triplegroup_projection(self):
        group = TripleGroup(
            SUBJECT,
            (
                Triple(SUBJECT, IRI("urn:p0"), IRI("urn:a")),
                Triple(SUBJECT, IRI("urn:p0"), IRI("urn:b")),
                Triple(SUBJECT, IRI("urn:p1"), IRI("urn:c")),
            ),
        )
        fact = factorize(group)
        keep = frozenset({PropKey(IRI("urn:p0"))})
        projected = fact.project(keep)
        assert projected.objects_for(PropKey(IRI("urn:p0"))) == (
            IRI("urn:a"),
            IRI("urn:b"),
        )
        assert projected.objects_for(PropKey(IRI("urn:p1"))) == ()
        assert len(projected) == 2


class TestMemos:
    """One memo idiom: hidden slots on frozen records (DESIGN.md §7.3)."""

    P0, P1 = PropKey(IRI("urn:p0")), PropKey(IRI("urn:p1"))

    def test_factorized_relation(self):
        def make():
            return FactorizedRelation(
                SUBJECT,
                schema_for(frozenset({self.P0, self.P1})),
                ((IRI("urn:a"), IRI("urn:b")), (IRI("urn:c"),)),
            )

        def fill(fact):
            fact.props()
            fact.project(frozenset({self.P0}))
            fact.estimated_size()

        # A deep copy's schema is a copy too, and schemas compare by identity.
        assert_memos_stay_hidden(
            make, fill, value=lambda fact: (fact.subject, fact.schema.keys, fact.columns)
        )

    def test_star_schema(self):
        # Built directly: ``schema_for`` would hand back the one instance.
        assert_memos_stay_hidden(
            lambda: StarSchema((self.P0, self.P1)),
            lambda schema: schema.position(self.P1),
            value=lambda schema: schema.keys,
        )

    def test_row_factor(self):
        x, y = Variable("x"), Variable("y")
        assert_memos_stay_hidden(
            lambda: RowFactor(((x, IRI("urn:a")),), ((((y, IRI("urn:b")),),),)),
            lambda factor: factor.estimated_size(),
        )


def _variables(names):
    return [Variable(name) for name in names]


class TestRowFactor:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_bruteforce_nested_loop(self, data):
        """Independent oracle: enumerate the full cartesian product and
        filter by incremental compatibility — must equal rows() exactly,
        order included."""
        x, y, z = _variables("xyz")
        terms = [IRI(f"urn:t{i}") for i in range(3)]
        row_strategy = st.lists(
            st.tuples(st.sampled_from([x, y, z]), st.sampled_from(terms)),
            min_size=1,
            max_size=2,
        ).map(lambda items: tuple(dict(items).items()))
        base = data.draw(row_strategy)
        parts = data.draw(
            st.lists(
                st.lists(row_strategy, min_size=0, max_size=3).map(tuple),
                min_size=0,
                max_size=3,
            ).map(tuple)
        )
        factor = RowFactor(base, parts)

        expected = []
        for combination in product(*parts) if parts else [()]:
            row = dict(base)
            compatible = True
            for candidate in combination:
                for variable, term in candidate:
                    if variable in row and row[variable] != term:
                        compatible = False
                        break
                if not compatible:
                    break
                row.update(candidate)
            if compatible:
                expected.append(row)
        # rows() short-circuits when a prefix filters to nothing; the
        # brute force then finds nothing either.
        assert factor.rows() == expected

    def test_empty_part_yields_no_rows(self):
        x = Variable("x")
        factor = RowFactor(((x, IRI("urn:a")),), ((),))
        assert factor.rows() == []

    def test_compatible_is_direction_symmetric(self):
        x = Variable("x")
        left = {x: IRI("urn:a")}
        assert _compatible(left, ((x, IRI("urn:a")),))
        assert not _compatible(left, ((x, IRI("urn:b")),))
        assert _compatible({}, ((x, IRI("urn:b")),))

    def test_estimated_size_counts_all_factors(self):
        x = Variable("x")
        small = RowFactor(((x, IRI("urn:a")),))
        bigger = RowFactor(
            ((x, IRI("urn:a")),), ((((Variable("y"), IRI("urn:b")),),),)
        )
        assert 0 < small.estimated_size() < bigger.estimated_size()


class TestRepresentationContext:
    def test_validate_normalizes(self):
        assert validate_representation(" Flat ") == "flat"
        assert validate_representation("FACTORIZED") == "factorized"
        for mode in REPRESENTATIONS:
            assert validate_representation(mode) == mode

    @pytest.mark.parametrize("bad", ["", "bogus", "column", None, 7])
    def test_validate_rejects_with_one_line_diagnostic(self, bad):
        with pytest.raises(ReproError, match="invalid representation"):
            validate_representation(bad)

    def test_ambient_context_sets_and_restores(self):
        assert ambient.representation is None
        with active_representation("flat"):
            assert ambient.representation == "flat"
            with active_representation("auto"):
                assert ambient.representation == "auto"
            assert ambient.representation == "flat"
        assert ambient.representation is None

    def test_resolution_precedence(self):
        assert resolve_representation() == DEFAULT_REPRESENTATION
        with active_representation("flat"):
            assert resolve_representation() == "flat"
            assert resolve_representation("factorized") == "factorized"

    def test_active_representation_rejects_bad_mode(self):
        with pytest.raises(ReproError):
            with active_representation("bogus"):
                pass  # pragma: no cover
        assert ambient.representation is None


class TestCostModelPricing:
    def test_no_savings_chooses_flat(self):
        model = CostModel()
        assert (
            model.choose_representation(flat_bytes=1000, factorized_bytes=1000)
            == "flat"
        )

    def test_large_savings_choose_factorized(self):
        model = CostModel()
        assert (
            model.choose_representation(
                flat_bytes=1_000_000, factorized_bytes=500_000
            )
            == "factorized"
        )

    def test_advantage_formula(self):
        model = CostModel()
        saved = 120_000
        advantage = model.representation_advantage(
            flat_bytes=200_000, factorized_bytes=80_000, cycles=3
        )
        expected = (
            saved / model.shuffle_rate
            + saved / model.write_rate
            - 3 * model.factorization_overhead
        )
        assert advantage == pytest.approx(expected)


def test_factorized_counters_are_documented():
    """Counter-inventory check: every factorization metric appears in
    the docs/observability.md glossary."""
    docs = (
        Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    ).read_text()
    for name in FACTORIZED_COUNTERS:
        assert name in docs, f"{name} missing from docs/observability.md"
