"""Job-level unit tests for the NTGA physical operators."""

from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest

from repro import obs, run_query
from repro.bench.catalog import CATALOG
from repro.core.query_model import PropKey, parse_analytical
from repro.core.results import EngineConfig, rows_digest
from repro.datasets import bsbm
from repro.errors import PlanningError
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner
from repro.ntga.composite import build_composite, single_pattern_plan
from repro.ntga.physical import (
    AggRow,
    build_agg_join_job,
    build_alpha_join_job,
    derive_join_steps,
    empty_group_rows,
    load_triplegroups,
    make_star_filter,
    restricted_alphas,
    shared_prefilters,
)
from repro.ntga.triplegroup import JoinedTripleGroup, TripleGroup
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple

EX = "http://ex.org/"


def iri(name):
    return IRI(EX + name)


def tg(name, *pairs):
    subject = iri(name)
    return TripleGroup(subject, tuple(Triple(subject, p, o) for p, o in pairs))


MG1_QUERY = """
PREFIX ex: <http://ex.org/>
SELECT ?f ?sumF ?cntT {
  { SELECT ?f (SUM(?pr2) AS ?sumF) {
      ?p2 a ex:PT1 ; ex:label ?l2 ; ex:feature ?f .
      ?o2 ex:product ?p2 ; ex:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (COUNT(?pr) AS ?cntT) {
      ?p1 a ex:PT1 ; ex:label ?l1 .
      ?o1 ex:product ?p1 ; ex:price ?pr .
    }
  }
}
"""


@pytest.fixture
def composite():
    query = parse_analytical(MG1_QUERY)
    return build_composite(query.subqueries[0], query.subqueries[1])


class TestStarFilter:
    def test_requires_primaries(self, composite):
        product_filter = make_star_filter(composite.stars[0])
        with_label = tg("p1", (RDF_TYPE, iri("PT1")), (iri("label"), Literal("x")))
        without_label = tg("p2", (RDF_TYPE, iri("PT1")))
        assert product_filter(with_label) is not None
        assert product_filter(without_label) is None

    def test_keeps_optional_properties(self, composite):
        product_filter = make_star_filter(composite.stars[0])
        group = tg(
            "p1",
            (RDF_TYPE, iri("PT1")),
            (iri("label"), Literal("x")),
            (iri("feature"), iri("f1")),
        )
        filtered = product_filter(group)
        assert PropKey(iri("feature")) in filtered.props()

    def test_projects_unrelated_properties(self, composite):
        product_filter = make_star_filter(composite.stars[0])
        group = tg(
            "p1",
            (RDF_TYPE, iri("PT1")),
            (iri("label"), Literal("x")),
            (iri("unrelated"), Literal("y")),
        )
        filtered = product_filter(group)
        assert PropKey(iri("unrelated")) not in filtered.props()

    def test_pushed_object_filter_drops_triples(self):
        from repro.sparql.expressions import BinaryExpr, ConstExpr, VarExpr

        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT (COUNT(?pr) AS ?c) { ?o ex:product ?p ; ex:price ?pr . FILTER(?pr > 100) }
            """
        )
        plan = single_pattern_plan(query.subqueries[0])
        star_filter = make_star_filter(plan.stars[0], plan.subqueries[0].filters)
        group = tg(
            "o1",
            (iri("product"), iri("p1")),
            (iri("price"), Literal.from_python(50)),
            (iri("price"), Literal.from_python(150)),
        )
        filtered = star_filter(group)
        assert filtered.objects_for(PropKey(iri("price"))) == (
            Literal.from_python(150),
        )

    def test_pushed_filter_can_eliminate_group(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT (COUNT(?pr) AS ?c) { ?o ex:product ?p ; ex:price ?pr . FILTER(?pr > 100) }
            """
        )
        plan = single_pattern_plan(query.subqueries[0])
        star_filter = make_star_filter(plan.stars[0], plan.subqueries[0].filters)
        group = tg("o1", (iri("product"), iri("p1")), (iri("price"), Literal.from_python(50)))
        assert star_filter(group) is None


class TestSharedPrefilters:
    def test_intersection_of_subquery_filters(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?a ?b {
              { SELECT (COUNT(?x) AS ?a) { ?s ex:p ?x . FILTER(?x > 5) } }
              { SELECT (COUNT(?y) AS ?b) { ?t ex:p ?y . FILTER(?y > 5) } }
            }
            """
        )
        plan = build_composite(query.subqueries[0], query.subqueries[1])
        shared = shared_prefilters(plan.subqueries)
        assert len(shared) == 1  # canonicalization makes the filters identical

    def test_differing_filters_not_shared(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?a ?b {
              { SELECT (COUNT(?x) AS ?a) { ?s ex:p ?x . FILTER(?x > 5) } }
              { SELECT (COUNT(?y) AS ?b) { ?t ex:p ?y . FILTER(?y > 99) } }
            }
            """
        )
        plan = build_composite(query.subqueries[0], query.subqueries[1])
        assert shared_prefilters(plan.subqueries) == ()


class TestJoinSteps:
    def test_mg1_single_step(self, composite):
        steps = derive_join_steps(composite)
        assert len(steps) == 1
        step = steps[0]
        assert step.new_star == 1
        assert step.primary.variable == Variable("p2")
        assert step.primary.left_side.role == "subject"
        assert step.primary.right_side.role == "object"

    def test_three_star_two_steps(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?c (COUNT(?pr) AS ?n) {
              ?p a ex:PT1 .
              ?o ex:product ?p ; ex:price ?pr ; ex:vendor ?v .
              ?v ex:country ?c .
            } GROUP BY ?c
            """
        )
        plan = single_pattern_plan(query.subqueries[0])
        steps = derive_join_steps(plan)
        assert [step.new_star for step in steps] == [1, 2]

    def test_disconnected_pattern_rejected(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT (COUNT(?x) AS ?n) { ?s ex:p ?x . ?t ex:q ?y . }
            """
        )
        plan = single_pattern_plan(query.subqueries[0])
        with pytest.raises(PlanningError):
            derive_join_steps(plan)

    def test_object_object_join_sides(self):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT (COUNT(?gi) AS ?n) {
              ?b ex:CID ?cid ; ex:gi ?gi .
              ?u ex:gi ?gi ; ex:sym ?g .
            }
            """
        )
        plan = single_pattern_plan(query.subqueries[0])
        (step,) = derive_join_steps(plan)
        assert step.primary.left_side.role == "object"
        assert step.primary.right_side.role == "object"


class TestRestrictedAlphas:
    def test_only_joined_stars_contribute(self, composite):
        partial = restricted_alphas(composite, frozenset({1}))
        # The feature secondary lives in star 0; with only star 1 joined
        # neither subquery has restrictions yet.
        assert all(a.required == frozenset() for a in partial)
        full = restricted_alphas(composite, frozenset({0, 1}))
        assert full[0].required == frozenset({PropKey(iri("feature"))})


class TestJobExecution:
    def _store(self, graph):
        hdfs = HDFS()
        return hdfs, load_triplegroups(graph, hdfs)

    def _graph(self):
        graph = Graph()
        graph.add_all(
            [
                Triple(iri("p1"), RDF_TYPE, iri("PT1")),
                Triple(iri("p1"), iri("label"), Literal("one")),
                Triple(iri("p1"), iri("feature"), iri("f1")),
                Triple(iri("o1"), iri("product"), iri("p1")),
                Triple(iri("o1"), iri("price"), Literal.from_python(10)),
                Triple(iri("p2"), RDF_TYPE, iri("PT1")),
                Triple(iri("p2"), iri("label"), Literal("two")),
                Triple(iri("o2"), iri("product"), iri("p2")),
                Triple(iri("o2"), iri("price"), Literal.from_python(20)),
            ]
        )
        return graph

    def test_alpha_join_job_produces_joined_groups(self, composite):
        hdfs, store = self._store(self._graph())
        (step,) = derive_join_steps(composite)
        job = build_alpha_join_job(
            name="t:join",
            step=step,
            plan=composite,
            store=store,
            previous_output=None,
            joined_so_far=frozenset({0}),
            output="t/out",
        )
        MapReduceRunner(hdfs).run_job(job)
        joined = hdfs.read("t/out").records
        assert len(joined) == 2  # one per (product, offer) pair
        assert all(isinstance(record, JoinedTripleGroup) for record in joined)
        assert {record.component(1).subject for record in joined} == {iri("o1"), iri("o2")}

    def test_side_naming_a_star_outside_the_layout_is_a_planning_error(self, composite):
        """Such a step used to join nothing, silently: ``keys_for`` found
        no component and returned no keys.  Slots are resolved when the
        job is built, so now the builder refuses it."""
        hdfs, store = self._store(self._graph())
        (step,) = derive_join_steps(composite)
        stray_left = replace(step.primary, left_side=replace(step.primary.left_side, star_index=5))
        stray_right = replace(step.primary, right_side=replace(step.primary.right_side, star_index=0))
        for broken, star in (
            (replace(step, primary=stray_left), 5),
            (replace(step, primary=stray_right), 0),  # right records hold star 1 only
            (replace(step, extras=(stray_left,)), 5),
        ):
            with pytest.raises(PlanningError, match=rf"attaching star 1.* names star {star}"):
                build_alpha_join_job(
                    name="t:join",
                    step=broken,
                    plan=composite,
                    store=store,
                    previous_output=None,
                    joined_so_far=frozenset({0}),
                    output="t/out",
                )

    def test_agg_join_job_rows(self, composite):
        hdfs, store = self._store(self._graph())
        (step,) = derive_join_steps(composite)
        join_job = build_alpha_join_job(
            name="t:join", step=step, plan=composite, store=store,
            previous_output=None, joined_so_far=frozenset({0}), output="t/joined",
        )
        agg_job = build_agg_join_job(
            name="t:agg", plan=composite, detail_input="t/joined", store=store,
            output="t/agg",
        )
        runner = MapReduceRunner(hdfs)
        runner.run_workflow([join_job, agg_job])
        rows = {
            (record.subquery_id, record.as_dict().get(Variable("f")))
            for record in hdfs.read("t/agg").records
        }
        # Subquery 0 groups by feature (only p1 has one); subquery 1 rolls up.
        assert (0, iri("f1")) in rows
        assert (1, None) in rows
        roll_up = next(
            record for record in hdfs.read("t/agg").records if record.subquery_id == 1
        )
        assert roll_up.as_dict()[Variable("cntT")].python_value() == 2

    def test_agg_join_without_detail_needs_matching_files(self, composite):
        hdfs = HDFS()
        store = load_triplegroups(Graph(), hdfs)
        job = build_agg_join_job(
            name="t:agg", plan=single_pattern_plan(
                parse_analytical(
                    "PREFIX ex: <http://ex.org/> "
                    "SELECT (COUNT(?f) AS ?c) { ?p ex:feature ?f }"
                ).subqueries[0]
            ),
            detail_input=None, store=store, output="t/agg",
        )
        MapReduceRunner(hdfs).run_job(job)
        assert hdfs.read("t/agg").records == []  # empty store, no groups


#: Operator counters of one traced ``rapid-analytics`` run, recorded at
#: the commit before the α-join was compiled (PR 15 re-anchor): the
#: compiled cycle must report what the interpreted one did.
OPERATOR_COUNTERS = {
    # MG3 on BSBM tiny: two α-join steps, single-valued join properties.
    "MG3": {
        "nsplit_split_groups": 0,
        "nsplit_fanout": 0,
        "alpha_combinations_materialized": 72,
        "alpha_combinations_pruned": 0,
        "sigma_dropped_triplegroups": 222,
    },
    # MG10 on Chem2Bio2RDF tiny: n-split fan-out and α pruning.
    "MG10": {
        "nsplit_split_groups": 90,
        "nsplit_fanout": 220,
        "alpha_combinations_materialized": 280,
        "alpha_combinations_pruned": 75,
        "sigma_dropped_triplegroups": 220,
    },
}


@pytest.mark.parametrize("qid", sorted(OPERATOR_COUNTERS))
def test_operator_counters_match_the_interpreted_cycle(qid, chem_tiny):
    graph = chem_tiny if qid == "MG10" else bsbm.generate(bsbm.preset("tiny"))
    with obs.tracing() as tracer:
        run_query(CATALOG[qid].sparql, graph, engine="rapid-analytics")
    counted = Counter()
    for span in tracer.spans:
        counted.update(span.metrics)
    expected = OPERATOR_COUNTERS[qid]
    assert {name: counted[name] for name in expected} == expected


def run_agg_join_jobs_through(wrap, sparql, graph, representation="flat"):
    """One ``rapid-analytics`` run whose TG_AgJ jobs pass through
    ``wrap(run_job, runner, job, counters) -> JobStats``; the report."""
    run_job = MapReduceRunner.run_job

    def intercepting(runner, job, counters=None):
        if "TG_AgJ" in job.labels:
            return wrap(run_job, runner, job, counters)
        return run_job(runner, job, counters)

    with patch.object(MapReduceRunner, "run_job", intercepting):
        config = EngineConfig(representation=representation)
        return run_query(sparql, graph, engine="rapid-analytics", config=config)


#: ``(map_output_records, combine_input_records, combine_output_records,
#: reduce_output_records, shuffle_bytes)`` of the one TG_AgJ job, the
#: number of final rows and the head of their order-sensitive digest, on
#: the BSBM tiny preset: recorded at the commit before TG_AgJ moved to
#: slot rows (PR 18).  The goldens pin workflow totals; this pins the job.
AGG_JOIN_PINS = {
    "MG1": ((134, 134, 24, 24, 2243), 23, "b8fafefd47aef269"),
    "MG2": ((10, 10, 5, 5, 426), 4, "ee0d3841485e41e8"),
    "MG3": ((134, 134, 76, 76, 10417), 68, "1a83531bfb8d944e"),
    "MG4": ((10, 10, 10, 10, 1322), 8, "97acc4ad5099acd3"),
}


@pytest.mark.parametrize("representation", ["flat", "factorized"])
@pytest.mark.parametrize("qid", sorted(AGG_JOIN_PINS))
def test_agg_join_job_counters_match_the_dict_keyed_cycle(qid, representation):
    seen = []

    def recording(run_job, runner, job, counters):
        own = Counters()
        stats = run_job(runner, job, own)
        counters.merge(own)
        seen.append(
            (
                own["map_output_records"],
                own["combine_input_records"],
                own["combine_output_records"],
                own["reduce_output_records"],
                stats.shuffle_bytes,
            )
        )
        return stats

    report = run_agg_join_jobs_through(
        recording, CATALOG[qid].sparql, bsbm.generate(bsbm.preset("tiny")), representation
    )
    counters, row_count, digest = AGG_JOIN_PINS[qid]
    assert seen == [counters]
    assert len(report.rows) == row_count
    assert rows_digest(report.rows).startswith(digest)


# "Record-time code only indexes" (docs/performance.md), as a test: what
# TG_AgJ's map phase hashes of ``Variable``s is fixed when the job is
# built -- a solution is a row, read by position.

OFFERS_BY_VENDOR = """
PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
SELECT ?v (COUNT(?pr) AS ?n) {
  ?o bsbm:product ?p ; bsbm:price ?pr ; bsbm:vendor ?v ; bsbm:validTo ?until .
  %s
} GROUP BY ?v
"""
#: Two variables, so σ^γopt cannot take it: it stays a residual filter.
RESIDUAL_FILTER = 'FILTER(?pr > 5000 || ?until = "2016-01-01")'


def variable_hashes_while_mapping(sparql, graph):
    """``Variable.__hash__`` calls made inside the TG_AgJ mappers of one
    run (tracing off) -- not by the α-join cycles feeding them, nor by
    planning -- and the number of pairs those mappers emit."""
    tally = {"calls": 0, "emitted": 0, "mapping": False}
    plain_hash = Variable.__hash__

    def counting_hash(variable):
        tally["calls"] += tally["mapping"]
        return plain_hash(variable)

    def counted(run_job, runner, job, counters):
        def mapper(record):
            tally["mapping"] = True
            try:
                pairs = list(job.mapper(record))
            finally:
                tally["mapping"] = False
            tally["emitted"] += len(pairs)
            return pairs

        return run_job(runner, replace(job, mapper=mapper), counters)

    with patch.object(Variable, "__hash__", counting_hash):
        run_agg_join_jobs_through(counted, sparql, graph)
    return tally["calls"], tally["emitted"]


@pytest.fixture(scope="module")
def bsbm_two_sizes():
    return [
        bsbm.generate(bsbm.BSBMConfig(products=products, vendors=8, offers_per_product=2))
        for products in (60, 180)
    ]


@pytest.mark.parametrize(
    "sparql",
    [CATALOG["MG3"].sparql, OFFERS_BY_VENDOR % ""],
    ids=["MG3-two-stars-over-the-alpha-join-detail", "single-star"],
)
def test_map_phase_hashes_no_variable_per_solution(sparql, bsbm_two_sizes):
    (small_calls, small_emitted), (large_calls, large_emitted) = (
        variable_hashes_while_mapping(sparql, graph) for graph in bsbm_two_sizes
    )
    assert large_emitted > 2 * small_emitted  # the data did grow
    # Plan-time only: placing the first record's ``fixed`` layout.
    assert large_calls == small_calls <= 8


def test_residual_filter_hashes_only_its_own_variables(bsbm_two_sizes):
    small, large = bsbm_two_sizes
    # Every offer is one solution; the unfiltered twin counts them.
    _, small_solutions = variable_hashes_while_mapping(OFFERS_BY_VENDOR % "", small)
    _, large_solutions = variable_hashes_while_mapping(OFFERS_BY_VENDOR % "", large)
    small_calls, small_emitted = variable_hashes_while_mapping(
        OFFERS_BY_VENDOR % RESIDUAL_FILTER, small
    )
    large_calls, large_emitted = variable_hashes_while_mapping(
        OFFERS_BY_VENDOR % RESIDUAL_FILTER, large
    )
    assert 0 < small_emitted < small_solutions and large_emitted < large_solutions
    # Per solution and filter variable: one hash to put it in the
    # filter's dict, one each time the expression reads it (once here).
    filter_variables = 2
    grown = large_calls - small_calls
    assert 0 < grown <= 2 * filter_variables * (large_solutions - small_solutions)


# The same rule for property keys: keys are interned (``prop_key``), so
# the subset tests of σ^γopt and α find theirs by identity.  A Python-
# level ``PropKey.__eq__`` is a plan-time event.


def prop_key_comparisons(sparql, graph, representation):
    """Python-level ``PropKey.__eq__`` calls of one cold run (layouts
    derived, every ``props()`` set built), and the records it read."""
    calls = 0
    plain_eq = PropKey.__eq__

    def counting_eq(key, other):
        nonlocal calls
        calls += 1
        return plain_eq(key, other)

    with patch.object(PropKey, "__eq__", counting_eq):
        report = run_query(
            sparql,
            graph,
            engine="rapid-analytics",
            config=EngineConfig(representation=representation),
        )
    return calls, report.stats.counters["map_input_records"]


@pytest.mark.parametrize("representation", ["flat", "factorized"])
def test_prop_keys_are_compared_by_identity_per_record(representation):
    small, large = (
        bsbm.generate(bsbm.BSBMConfig(products=products, vendors=8, offers_per_product=2))
        for products in (100, 400)
    )
    sparql = CATALOG["MG1"].sparql
    small_calls, small_records = prop_key_comparisons(sparql, small, representation)
    large_calls, large_records = prop_key_comparisons(sparql, large, representation)
    assert large_records > 3 * small_records  # the data did grow
    assert large_calls == small_calls <= 64


class TestEmptyGroupRows:
    def test_rollup_defaults(self, composite):
        rows = empty_group_rows(composite)
        assert len(rows) == 1  # only the GROUP-BY-ALL subquery
        (default,) = rows
        assert default.subquery_id == 1
        assert default.as_dict()[Variable("cntT")].python_value() == 0

    def test_grouped_subqueries_have_no_defaults(self):
        query = parse_analytical(
            "PREFIX ex: <http://ex.org/> "
            "SELECT ?f (COUNT(?f) AS ?c) { ?p ex:feature ?f } GROUP BY ?f"
        )
        assert empty_group_rows(single_pattern_plan(query.subqueries[0])) == []


class TestAggRow:
    def test_as_dict_and_size(self):
        row = AggRow(0, ((Variable("x"), Literal("v")),))
        assert row.as_dict() == {Variable("x"): Literal("v")}
        assert row.estimated_size() > 0
