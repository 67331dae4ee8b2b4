"""Serve-layer plan-decision caching (the adaptive planner's memory).

Under a non-rule planner the service stores the chosen candidate name
per (fingerprint, graph version, engine) in the plan cache and replays
it on repeat solo executions via ``EngineConfig.plan_decision``.  Rule
mode — the goldens' world — must never touch those keys.
"""

from dataclasses import replace

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.core.engines import make_engine, to_analytical
from repro.core.results import rows_digest
from repro.serve.service import OK, QueryService, ServiceConfig
from repro.serve.fingerprint import fingerprint_query


def sparql(qid):
    return get_query(qid).sparql


def service_config(planner):
    return ServiceConfig(engine_config=replace(chem_config(), planner=planner))


def decision_keys(service):
    return [key for key in service.plan_cache if key[0] == "plan-choice"]


@pytest.fixture(scope="module")
def mg6_digest():
    return fingerprint_query(sparql("MG6")).digest


def test_cost_mode_caches_the_choice(chem_tiny, mg6_digest):
    service = QueryService(chem_tiny, service_config("cost"))
    response = service.query(sparql("MG6"), label="MG6")
    assert response.status == OK
    key = ("plan-choice", mg6_digest, chem_tiny.version, "rapid-analytics")
    assert service.plan_cache.peek(key) == "composite"


def test_replay_hits_and_answers_stay_identical(chem_tiny):
    service = QueryService(chem_tiny, service_config("cost"))
    first = service.query(sparql("MG6"), label="cold")
    # Force a re-execution (not a result-cache hit): clear results only.
    service.result_cache.clear()
    second = service.query(sparql("MG6"), label="warm")
    assert second.source == "solo"  # re-executed, not served from cache
    assert rows_digest(second.rows) == rows_digest(first.rows)
    assert len(decision_keys(service)) == 1


def test_spelling_variants_share_the_decision(chem_tiny):
    service = QueryService(chem_tiny, service_config("cost"))
    service.query(sparql("MG6"), label="original")
    service.result_cache.clear()
    respelled = sparql("MG6").replace("\n", " \n")
    assert fingerprint_query(respelled).digest == fingerprint_query(sparql("MG6")).digest
    response = service.query(respelled, label="respelled")
    assert response.status == OK
    assert len(decision_keys(service)) == 1


def test_replayed_decision_matches_solo_cost_run(chem_tiny):
    """A replayed decision compiles the same plan a fresh cost-mode
    pricing would pick: the service answer stays bit-identical to a
    cold solo execution."""
    config = replace(chem_config(), planner="cost")
    solo = make_engine("rapid-analytics").execute(
        to_analytical(sparql("MG6")), chem_tiny, config
    )
    service = QueryService(chem_tiny, service_config("cost"))
    service.query(sparql("MG6"), label="first")
    service.result_cache.clear()
    warm = service.query(sparql("MG6"), label="second")
    assert rows_digest(warm.rows) == rows_digest(solo.rows)


def test_rule_mode_never_touches_decision_keys(chem_tiny):
    service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
    for label in ("one", "two"):
        assert service.query(sparql("MG6"), label=label).status == OK
        service.result_cache.clear()
    assert decision_keys(service) == []


def test_decisions_are_versioned_by_graph(chem_tiny, mg6_digest):
    """The key carries the graph version: decisions cached against one
    snapshot are not replayed against another."""
    service = QueryService(chem_tiny, service_config("cost"))
    service.query(sparql("MG6"), label="MG6")
    (key,) = decision_keys(service)
    assert key == ("plan-choice", mg6_digest, chem_tiny.version, "rapid-analytics")
