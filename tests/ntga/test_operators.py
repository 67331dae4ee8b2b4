"""Unit tests for the NTGA logical operators against the paper's figures.

The triplegroups here replicate Figure 4 (optional group filter and
n-split over offer triplegroups) and Figure 5 (the Agg-Join RNG
example), so each definition is exercised exactly as published.
"""

import pytest

from repro.core.query_model import AggregateSpec, PropKey, StarPattern
from repro.ntga.operators import (
    AggJoinSpec,
    AlphaCondition,
    JoinSide,
    agg_join,
    alpha_join,
    any_alpha_satisfied,
    create_prop,
    n_split,
    optional_group_filter,
    rng,
)
from repro.ntga.triplegroup import JoinedTripleGroup, TripleGroup
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern

PRODUCT, PRICE = IRI("urn:product"), IRI("urn:price")
VALID_FROM, VALID_TO = IRI("urn:validFrom"), IRI("urn:validTo")
PF, CN, PC = IRI("urn:pf"), IRI("urn:cn"), IRI("urn:pc")

P_PRIM = frozenset({PropKey(PRODUCT), PropKey(PRICE)})
P_OPT = frozenset({PropKey(VALID_FROM), PropKey(VALID_TO)})


def tg(name, *pairs):
    subject = IRI(f"urn:{name}")
    return TripleGroup(subject, tuple(Triple(subject, p, o) for p, o in pairs))


@pytest.fixture
def figure4_groups():
    """tg1 {product,price,validTo}, tg2 {product,price},
    tg3 {product,validFrom} (no price!), tg4 {all four}."""
    return [
        tg("offer1", (PRODUCT, IRI("urn:p1")), (PRICE, Literal("10")), (VALID_TO, Literal("2024"))),
        tg("offer2", (PRODUCT, IRI("urn:p2")), (PRICE, Literal("20"))),
        tg("offer3", (PRODUCT, IRI("urn:p3")), (VALID_FROM, Literal("2020"))),
        tg(
            "offer4",
            (PRODUCT, IRI("urn:p4")),
            (PRICE, Literal("40")),
            (VALID_FROM, Literal("2021")),
            (VALID_TO, Literal("2025")),
        ),
    ]


class TestOptionalGroupFilter:
    """Definition 3.3 / Figure 4(a)."""

    def test_figure4a(self, figure4_groups):
        kept = optional_group_filter(figure4_groups, P_PRIM, P_OPT)
        names = {g.subject.value for g in kept}
        # tg3 lacks the primary property price and is filtered out.
        assert names == {"urn:offer1", "urn:offer2", "urn:offer4"}

    def test_projects_irrelevant_properties(self):
        group = tg("o", (PRODUCT, IRI("urn:p")), (PRICE, Literal("1")), (CN, Literal("US")))
        (kept,) = optional_group_filter([group], P_PRIM, frozenset())
        assert kept.props() == P_PRIM

    def test_concrete_constraint_drops_nonmatching_triples(self):
        group = tg("o", (PRODUCT, IRI("urn:p")), (PRICE, Literal("1")), (PRICE, Literal("9")))
        (kept,) = optional_group_filter(
            [group], P_PRIM, frozenset(), constraints={PropKey(PRICE): Literal("9")}
        )
        assert kept.objects_for(PropKey(PRICE)) == (Literal("9"),)

    def test_constraint_can_eliminate_group(self):
        group = tg("o", (PRODUCT, IRI("urn:p")), (PRICE, Literal("1")))
        kept = optional_group_filter(
            [group], P_PRIM, frozenset(), constraints={PropKey(PRICE): Literal("9")}
        )
        assert kept == []


class TestNSplit:
    """Definition 3.4 / Figures 4(b) and 4(c)."""

    def test_figure4b(self, figure4_groups):
        valid = optional_group_filter(figure4_groups, P_PRIM, P_OPT)
        first, second = n_split(
            valid, P_PRIM, [frozenset({PropKey(VALID_FROM)}), frozenset({PropKey(VALID_TO)})]
        )
        # First combination {product, price, validFrom}: only tg4 qualifies.
        assert {g.subject.value for g in first} == {"urn:offer4"}
        assert first[0].props() == P_PRIM | {PropKey(VALID_FROM)}
        # Second combination {product, price, validTo}: tg1 and tg4.
        assert {g.subject.value for g in second} == {"urn:offer1", "urn:offer4"}

    def test_figure4c_empty_secondary_takes_all(self, figure4_groups):
        valid = optional_group_filter(figure4_groups, P_PRIM, P_OPT)
        first, second = n_split(
            valid, P_PRIM, [frozenset(), frozenset({PropKey(VALID_TO)})]
        )
        assert len(first) == 3  # primary-only subset extracted from every group
        assert all(g.props() == P_PRIM for g in first)
        assert {g.subject.value for g in second} == {"urn:offer1", "urn:offer4"}

    def test_groups_missing_primaries_skipped(self, figure4_groups):
        outputs = n_split(figure4_groups, P_PRIM, [frozenset()])
        assert {g.subject.value for g in outputs[0]} == {
            "urn:offer1",
            "urn:offer2",
            "urn:offer4",
        }


class TestAlphaCondition:
    def test_required(self):
        condition = AlphaCondition(required=frozenset({PropKey(PF)}))
        assert condition.satisfied_by(frozenset({PropKey(PF), PropKey(PC)}))
        assert not condition.satisfied_by(frozenset({PropKey(PC)}))

    def test_absent(self):
        condition = AlphaCondition(absent=frozenset({PropKey(PF)}))
        assert condition.satisfied_by(frozenset({PropKey(PC)}))
        assert not condition.satisfied_by(frozenset({PropKey(PF)}))

    def test_disjunction(self):
        conditions = [
            AlphaCondition(required=frozenset({PropKey(PF)})),
            AlphaCondition(required=frozenset({PropKey(CN)})),
        ]
        assert any_alpha_satisfied(conditions, frozenset({PropKey(CN)}))
        assert not any_alpha_satisfied(conditions, frozenset({PropKey(PC)}))

    def test_empty_condition_list_is_true(self):
        assert any_alpha_satisfied([], frozenset())

    def test_describe(self):
        condition = AlphaCondition(
            required=frozenset({PropKey(PF)}), absent=frozenset({PropKey(CN)})
        )
        text = condition.describe()
        assert "pf != ∅" in text and "cn = ∅" in text
        assert AlphaCondition().describe() == "true"


class TestAlphaJoin:
    """Definition 3.5."""

    def _sides(self):
        # products keyed by subject; offers keyed by their product object.
        return (
            JoinSide("subject", None, 0),
            JoinSide("object", PropKey(PRODUCT), 1),
        )

    def test_join_pairs_on_key(self):
        products = [JoinedTripleGroup.single(0, tg("p1", (PF, IRI("urn:f1"))))]
        offers = [
            JoinedTripleGroup.single(1, tg("o1", (PRODUCT, IRI("urn:p1")), (PRICE, Literal("5")))),
            JoinedTripleGroup.single(1, tg("o2", (PRODUCT, IRI("urn:zz")), (PRICE, Literal("7")))),
        ]
        left_side, right_side = self._sides()
        joined = alpha_join(products, offers, left_side, right_side, Variable("p"))
        assert len(joined) == 1
        assert dict(joined[0].fixed)[Variable("p")] == IRI("urn:p1")

    def test_alpha_prunes_unmatched_combinations(self):
        """A combination matching no original pattern is not materialized."""
        products = [JoinedTripleGroup.single(0, tg("p1", (PC, Literal("1"))))]  # no pf
        offers = [JoinedTripleGroup.single(1, tg("o1", (PRODUCT, IRI("urn:p1"))))]
        left_side, right_side = self._sides()
        alphas = [AlphaCondition(required=frozenset({PropKey(PF)}))]
        joined = alpha_join(products, offers, left_side, right_side, Variable("p"), alphas)
        assert joined == []

    def test_multi_valued_object_joins_each_value(self):
        pubs = [
            JoinedTripleGroup.single(
                0, tg("pub", (PRODUCT, IRI("urn:p1")), (PRODUCT, IRI("urn:p2")))
            )
        ]
        products = [
            JoinedTripleGroup.single(1, tg("p1", (PF, IRI("urn:f")))),
            JoinedTripleGroup.single(1, tg("p2", (PF, IRI("urn:g")))),
        ]
        joined = alpha_join(
            pubs,
            products,
            JoinSide("object", PropKey(PRODUCT), 0),
            JoinSide("subject", None, 1),
            Variable("p"),
        )
        assert len(joined) == 2
        values = {dict(j.fixed)[Variable("p")] for j in joined}
        assert values == {IRI("urn:p1"), IRI("urn:p2")}


class TestAggJoin:
    """Definition 3.6 / Figure 5."""

    def _spec(self):
        star = StarPattern(
            Variable("s"),
            (
                TriplePattern(Variable("s"), PF, Variable("f")),
                TriplePattern(Variable("s"), CN, Variable("c")),
                TriplePattern(Variable("s"), PC, Variable("price")),
            ),
        )
        return AggJoinSpec(
            subquery_id=0,
            stars=(star,),
            star_indices=(0,),
            theta=(Variable("f"), Variable("c")),
            aggregates=(
                AggregateSpec(Variable("sumF"), "SUM", Variable("price")),
                AggregateSpec(Variable("countF"), "COUNT", Variable("price")),
            ),
            alpha=AlphaCondition(required=frozenset({PropKey(PF)})),
            output_group_by=(Variable("f"), Variable("c")),
        )

    def _details(self):
        feat1, feat2, feat4 = IRI("urn:Feat1"), IRI("urn:Feat2"), IRI("urn:Feat4")
        uk, us = Literal("UK"), Literal("US")
        dtg1 = tg("d1", (PF, feat1), (CN, uk), (PC, Literal.from_python(100)))
        dtg2 = tg("d2", (CN, uk), (PC, Literal.from_python(999)))  # no pf: fails α
        dtg3 = tg("d3", (PF, feat2), (PF, feat4), (CN, us), (PC, Literal.from_python(50)))
        dtg4 = tg("d4", (PF, feat1), (CN, uk), (PC, Literal.from_python(200)))
        return [JoinedTripleGroup.single(0, d) for d in (dtg1, dtg2, dtg3, dtg4)]

    def test_rng_like_figure5(self):
        spec, details = self._spec(), self._details()
        feat1_uk = (IRI("urn:Feat1"), Literal("UK"))
        matched = rng(feat1_uk, details, spec)
        assert {j.component(0).subject.value for j in matched} == {"urn:d1", "urn:d4"}
        # dtg2 fails the α condition and belongs to no group.
        assert rng((None, Literal("UK")), details, spec) == []

    def test_aggregation_per_group(self):
        results = {r.key: r.values for r in agg_join(self._details(), self._spec())}
        feat1_uk = (IRI("urn:Feat1"), Literal("UK"))
        assert results[feat1_uk][create_prop("SUM", Variable("price"))] == 300
        assert results[feat1_uk][create_prop("COUNT", Variable("price"))] == 2
        # dtg3's two features produce two groups (multi-valued expansion).
        assert (IRI("urn:Feat2"), Literal("US")) in results
        assert (IRI("urn:Feat4"), Literal("US")) in results
        assert len(results) == 3

    def test_explicit_base_keys_keep_defaults(self):
        """Figure 5: RNG(btg3) = ∅ and agtg3 retains default values."""
        empty_key = (IRI("urn:Feat3"), Literal("DE"))
        results = {
            r.key: r.values
            for r in agg_join(self._details(), self._spec(), base_keys=[empty_key])
        }
        assert results[empty_key][create_prop("SUM", Variable("price"))] == 0
        assert results[empty_key][create_prop("COUNT", Variable("price"))] == 0

    def test_group_by_all_over_empty_detail_yields_default_row(self):
        spec = AggJoinSpec(
            subquery_id=0,
            stars=self._spec().stars,
            star_indices=(0,),
            theta=(),
            aggregates=(AggregateSpec(Variable("n"), "COUNT", Variable("price")),),
        )
        results = agg_join([], spec)
        assert len(results) == 1
        assert results[0].values[create_prop("COUNT", Variable("price"))] == 0

    def test_min_of_empty_left_out_of_values(self):
        spec = AggJoinSpec(
            subquery_id=0,
            stars=self._spec().stars,
            star_indices=(0,),
            theta=(),
            aggregates=(AggregateSpec(Variable("m"), "MIN", Variable("price")),),
        )
        (result,) = agg_join([], spec)
        assert result.values == {}
