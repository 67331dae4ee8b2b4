"""Cardinality estimator: exactness guarantees and the class floor.

The estimator's core promise (docs/cost_model.md): on a single-star
pattern with no filters, ``star_subjects`` is *exact* — it counts the
subjects whose equivalence class contains every required property,
straight out of the :class:`~repro.rdf.stats.GraphStats` histogram.
The hypothesis test below checks that promise against brute force over
randomly shaped graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.mapreduce.hdfs import HDFS
from repro.ntga.physical import load_triplegroups
from repro.plan.cardinality import CardinalityEstimator
from repro.rdf.graph import Graph
from repro.rdf.stats import profile
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import RDF_TYPE, Triple

N_PROPS = 4


def build_graph(subject_props):
    """One subject per entry; each holds the listed property indices."""
    graph = Graph()
    for index, props in enumerate(subject_props):
        subject = IRI(f"urn:s{index}")
        for p in sorted(props):
            graph.add(
                Triple(subject, IRI(f"urn:p{p}"), Literal.from_python(index * 10 + p))
            )
    return graph


def single_star_query(required):
    """A one-star grouping query requiring exactly *required* props."""
    ordered = sorted(required)
    pattern = " ; ".join(f"<urn:p{p}> ?v{p}" for p in ordered)
    return (
        f"SELECT ?s (COUNT(?v{ordered[0]}) AS ?c) "
        f"{{ ?s {pattern} . }} GROUP BY ?s"
    )


class TestStarSubjectsExact:
    @settings(max_examples=30, deadline=None)
    @given(
        subject_props=st.lists(
            st.frozensets(st.integers(0, N_PROPS - 1)), min_size=1, max_size=20
        ),
        required=st.frozensets(
            st.integers(0, N_PROPS - 1), min_size=1, max_size=N_PROPS
        ),
    )
    def test_matches_brute_force(self, subject_props, required):
        graph = build_graph(subject_props)
        analytical = to_analytical(single_star_query(required))
        star = analytical.subqueries[0].pattern.stars[0]
        estimator = CardinalityEstimator(
            profile(graph), load_triplegroups(graph, HDFS())
        )
        expected = sum(1 for props in subject_props if required <= props)
        assert estimator.star_subjects(star) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        subject_props=st.lists(
            st.frozensets(st.integers(0, N_PROPS - 1), min_size=1), min_size=1, max_size=12
        ),
        required=st.frozensets(st.integers(0, N_PROPS - 1), min_size=1, max_size=2),
    )
    def test_estimate_matches_engine_row_count(self, subject_props, required):
        """End to end: the per-subject GROUP BY returns one row per
        qualifying subject, which is exactly ``star_subjects``."""
        graph = build_graph(subject_props)
        analytical = to_analytical(single_star_query(required))
        star = analytical.subqueries[0].pattern.stars[0]
        estimator = CardinalityEstimator(
            profile(graph), load_triplegroups(graph, HDFS())
        )
        report = make_engine("rapid-analytics").execute(
            analytical, graph, EngineConfig(planner="cost")
        )
        assert estimator.star_subjects(star) == len(report.rows)


class TestClassSelectivityFloor:
    def typed_graph(self):
        graph = Graph()
        for index in range(6):
            subject = IRI(f"urn:s{index}")
            graph.add(Triple(subject, RDF_TYPE, IRI(f"urn:C{index % 3}")))
            graph.add(Triple(subject, IRI("urn:p0"), Literal.from_python(index)))
        return graph

    def test_unknown_class_has_nonzero_floor(self):
        stats = profile(self.typed_graph())
        unknown = stats.class_selectivity(IRI("urn:C9"))
        assert unknown > 0.0
        # ...but still below every observed class's selectivity.
        assert unknown < stats.class_selectivity(IRI("urn:C0"))

    def test_untyped_graph_keeps_zero(self):
        """No rdf:type triples at all → the floor does not apply: a
        type-constrained star over an untyped graph is provably empty."""
        graph = Graph()
        graph.add(Triple(IRI("urn:s0"), IRI("urn:p0"), Literal.from_python(1)))
        assert profile(graph).class_selectivity(IRI("urn:C0")) == 0.0

    def test_unknown_class_query_prices_and_runs(self):
        """Regression: an absent class used to zero out the estimate
        chain; the floor keeps every candidate priced > 0 and the run
        still returns the true (empty) answer."""
        graph = self.typed_graph()
        query = to_analytical(
            "SELECT ?s (COUNT(?v) AS ?c) "
            "{ ?s a <urn:C9> ; <urn:p0> ?v . } GROUP BY ?s"
        )
        report = make_engine("rapid-analytics").execute(
            query, graph, EngineConfig(planner="cost")
        )
        assert report.rows == []
        choice = report.plan_choice
        assert choice is not None
        for candidate in choice.candidates:
            assert candidate.total_cost > 0.0
