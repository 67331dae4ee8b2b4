"""Plan enumerator: candidate pricing, mode choice, and the chosen plan.

The composite-loses decision logic is exercised with synthetic
candidates: on this simulator the fused composite plan prices below
sequential evaluation for every catalog query whose patterns overlap
(it is strictly a subset workload — one scan, one α-join chain, one
fused TG_AgJ), so a real graph cannot make the rewrite lose.  The knob
still must *stop firing the rewrite when it loses*, and `choose` is
where that decision lives.
"""

import pytest

from repro import obs
from repro.bench.catalog import get_query
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.mapreduce.hdfs import HDFS
from repro.ntga.physical import load_triplegroups
from repro.plan.enumerator import (
    AUTO_MARGIN,
    CandidatePlan,
    JobEstimate,
    choose,
    enumerate_candidates,
    plan_adaptive,
)
from repro.rdf.graph import Graph
from repro.rdf.stats import profile
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import RDF_TYPE, Triple

from tests.conftest import canonical_rows, compiled_candidate, run_candidate


def candidate(name, cost):
    job = JobEstimate(
        name=f"{name}:job",
        map_only=False,
        input_bytes=1,
        shuffle_bytes=1,
        output_bytes=1,
        map_tasks=1,
        reduce_tasks=1,
        output_rows=1.0,
        cost=cost,
    )
    return CandidatePlan(name=name, description="synthetic", jobs=(job,))


class TestChoose:
    """Synthetic candidates, rule order: composite first."""

    def test_rule_mode_keeps_losing_composite(self):
        # The pre-planner behavior: rule mode fires the rewrite even
        # when it prices 10x worse.
        candidates = [candidate("composite", 100.0), candidate("sequential", 10.0)]
        assert choose(candidates, "rule").name == "composite"

    def test_cost_mode_drops_losing_composite(self):
        candidates = [candidate("composite", 100.0), candidate("sequential", 10.0)]
        assert choose(candidates, "cost").name == "sequential"

    def test_cost_mode_keeps_winning_composite(self):
        candidates = [candidate("composite", 10.0), candidate("sequential", 100.0)]
        assert choose(candidates, "cost").name == "composite"

    def test_cost_tie_goes_to_rule_order(self):
        candidates = [candidate("composite", 10.0), candidate("sequential", 10.0)]
        assert choose(candidates, "cost").name == "composite"

    def test_auto_needs_the_margin(self):
        margin = 1.0 - AUTO_MARGIN
        inside = [candidate("composite", 100.0), candidate("sequential", 100.0 * margin)]
        assert choose(inside, "auto").name == "composite"
        beyond = [
            candidate("composite", 100.0),
            candidate("sequential", 100.0 * margin - 0.001),
        ]
        assert choose(beyond, "auto").name == "sequential"


@pytest.fixture(scope="module")
def bsbm_tiny():
    return bsbm.generate(bsbm.preset("tiny"))


@pytest.fixture(scope="module")
def mg1_setup(bsbm_tiny):
    query = to_analytical(get_query("MG1").sparql)
    store = load_triplegroups(bsbm_tiny, HDFS())
    return query, store, profile(bsbm_tiny)


class TestEnumerateMG1:
    def test_candidate_set(self, mg1_setup):
        query, store, stats = mg1_setup
        candidates, star_estimates = enumerate_candidates(
            query, store, stats, EngineConfig()
        )
        names = [c.name for c in candidates]
        # Rule order first: the composite rewrite is what the rule
        # planner builds for MG1.
        # No builder, no estimate: nothing prices a Hive plan.
        assert names == ["composite", "sequential", "sequential:stream=1"]
        assert star_estimates  # one estimate per star of the pattern

    def test_composite_prices_below_sequential(self, mg1_setup):
        """On this simulator the fused plan is a subset workload of the
        sequential one; the estimator must agree."""
        query, store, stats = mg1_setup
        candidates, _ = enumerate_candidates(query, store, stats, EngineConfig())
        by_name = {c.name: c for c in candidates}
        assert by_name["composite"].total_cost < by_name["sequential"].total_cost

    def test_every_candidate_positive_cost(self, mg1_setup):
        query, store, stats = mg1_setup
        candidates, _ = enumerate_candidates(query, store, stats, EngineConfig())
        for c in candidates:
            assert c.total_cost > 0.0
            assert all(job.cost >= 0.0 for job in c.jobs)


class TestBuildCandidate:
    """A candidate name selects the plan its planner compiled."""

    def test_stream_variant_rotates_final_join(self, mg1_setup):
        query, store, stats = mg1_setup
        _, base = compiled_candidate(query, store, stats, "sequential")
        _, rotated = compiled_candidate(query, store, stats, "sequential:stream=1")
        assert "streams subquery 1" in rotated.description
        assert "streams subquery" not in base.description
        assert len(rotated.jobs) == len(base.jobs)
        assert rotated.jobs[-1].inputs != base.jobs[-1].inputs


class TestPlanAdaptive:
    def test_cost_mode_attaches_choice(self, mg1_setup):
        query, store, stats = mg1_setup
        plan = plan_adaptive(query, store, stats, EngineConfig(), "cost")
        assert plan.choice is not None
        assert plan.choice.mode == "cost"
        assert plan.choice.chosen == "composite"

    def test_the_same_inputs_make_the_same_choice(self, mg1_setup):
        """The pick is a pure function of query, store, profile, config
        and mode: nothing is gained by remembering it."""
        query, store, stats = mg1_setup
        for mode in ("cost", "auto"):
            first = plan_adaptive(query, store, stats, EngineConfig(), mode)
            again = plan_adaptive(query, store, stats, EngineConfig(), mode)
            assert first.choice.as_dict() == again.choice.as_dict()

    def test_the_chosen_plan_carries_its_own_estimates(self, mg1_setup):
        """The plan that runs is the plan that was priced: each job holds
        the very estimate its candidate lists."""
        query, store, stats = mg1_setup
        plan = plan_adaptive(query, store, stats, EngineConfig(), "cost")
        chosen = plan.choice.candidate(plan.choice.chosen)
        assert len(plan.jobs) == len(chosen.jobs)
        for job, estimate in zip(plan.jobs, chosen.jobs):
            assert job.estimate is estimate


# -- the fallback path: when the rewrite cannot fire at all -------------------

FALLBACK_QUERY = """
SELECT ?x ?sumB ?sumC {
  { SELECT ?x (SUM(?bv) AS ?sumB) {
      ?x a <urn:T> ; <urn:toB> ?b . ?b <urn:bval> ?bv .
    } GROUP BY ?x }
  { SELECT ?x (SUM(?cv) AS ?sumC) {
      ?x a <urn:T> ; <urn:toC> ?c . ?c <urn:cval> ?cv .
    } GROUP BY ?x }
}
"""


def fallback_graph():
    """Two subqueries whose secondary stars are disjoint: the subject
    stars share only the type key, so `stars_overlap` rejects the pair
    and the composite rewrite cannot form."""
    graph = Graph()
    for i in range(40):
        x = IRI(f"urn:x{i}")
        graph.add(Triple(x, RDF_TYPE, IRI("urn:T")))
        for k in range(5):
            b = IRI(f"urn:b{i}_{k}")
            graph.add(Triple(x, IRI("urn:toB"), b))
            graph.add(Triple(b, IRI("urn:bval"), Literal.from_python(i + k)))
            c = IRI(f"urn:c{i}_{k}")
            graph.add(Triple(x, IRI("urn:toC"), c))
            graph.add(Triple(c, IRI("urn:cval"), Literal.from_python(i * k)))
    return graph


class TestOverlapFallback:
    def test_cost_mode_agrees_with_rule_fallback(self):
        """When composite cannot form, the rule plan is already the
        sequential workflow; cost mode must price it the same way and
        agree — no spurious deviation, identical answers."""
        graph = fallback_graph()
        query = to_analytical(FALLBACK_QUERY)
        engine = make_engine("rapid-analytics")
        rule_run = engine.execute(query, graph, EngineConfig(planner="rule"))
        cost_run = engine.execute(query, graph, EngineConfig(planner="cost"))
        assert len(rule_run.rows) == 40
        assert canonical_rows(cost_run.rows) == canonical_rows(rule_run.rows)
        assert cost_run.cost_seconds == pytest.approx(rule_run.cost_seconds)
        choice = cost_run.plan_choice
        assert choice is not None
        assert choice.chosen == "sequential"
        assert choice.candidate("composite") is None
        # candidates[0] is the rule planner's own fallback plan, job for
        # job what rule mode ran.
        assert [c.name for c in choice.candidates] == ["sequential", "sequential:stream=1"]
        assert cost_run.plan == rule_run.plan


class TestPlannerEvents:
    """Every candidate is compiled by a planner that announces itself
    (``composite`` / ``rewrite-fallback`` events); a traced cost-mode
    execution shows the chosen plan's announcement only, and exactly the
    spans it showed when candidates were priced without compiling them
    (counts as at a3f7170)."""

    @staticmethod
    def traced(query, graph):
        with obs.tracing() as recorder:
            make_engine("rapid-analytics").execute(
                to_analytical(query), graph, EngineConfig(planner="cost")
            )
        names = [event.name for event in recorder.events]
        return names, len(recorder.spans)

    def test_overlapping_query(self, bsbm_tiny):
        events, spans = self.traced(get_query("MG1").sparql, bsbm_tiny)
        assert events == ["composite", "planner-choice"]
        assert spans == 17

    def test_a_rejected_candidates_events_stay_out(self, bsbm_tiny):
        # Compiling every candidate compiles the composite too; run the
        # sequential one and its "composite" event stays held back.
        with obs.tracing() as recorder:
            run_candidate(to_analytical(get_query("MG1").sparql), bsbm_tiny, "sequential")
        assert [event.name for event in recorder.events] == []  # RAPID+ announces nothing

    def test_non_overlapping_query(self):
        # The rule plan -- candidates[0], the one chosen here -- is the
        # rule planner's own fallback, so its event is in the trace (the
        # mirrored pricing ran a plan_rapid_plus of its own and lost it).
        events, spans = self.traced(FALLBACK_QUERY, fallback_graph())
        assert events == ["rewrite-fallback", "planner-choice"]
        assert spans == 27
