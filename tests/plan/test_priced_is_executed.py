"""The priced job list *is* the executed job list — generated over the
whole catalog, every candidate.

A candidate is the planner's own compiled plan, priced off its jobs
(:func:`repro.plan.enumerator.price_jobs`), and each estimate rides on
its job into the executed :class:`~repro.mapreduce.job.JobStats`.  So
for every catalog query and every candidate the two lists must agree
object for object, and what the fold read off the first cycle's inputs
must be what the runner charged, exactly.

``priced_costs.json`` pins ``repr(total_cost)`` of all 60 candidates as
captured at the last commit that priced by mirroring the planner
(a3f7170): moving the arithmetic into the job builders moved no bit.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.catalog import CATALOG
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.datasets import generate
from repro.mapreduce.hdfs import HDFS
from repro.ntga.physical import load_triplegroups
from repro.plan import enumerate_candidates
from repro.rdf.stats import cached_profile

PRICED_COSTS = json.loads((Path(__file__).parent / "priced_costs.json").read_text())
CASES = [(qid, name) for qid, name, _cost in PRICED_COSTS]


@pytest.fixture(scope="module")
def tiny_graphs():
    return {
        dataset: generate(dataset, "tiny")
        for dataset in sorted({query.dataset for query in CATALOG.values()})
    }


def test_every_catalog_query_is_in_the_table():
    assert {qid for qid, _name in CASES} == set(CATALOG)
    assert len(CASES) == len(set(CASES)) == 60


def test_priced_costs_did_not_move(tiny_graphs):
    stores = {name: load_triplegroups(graph, HDFS()) for name, graph in tiny_graphs.items()}
    priced = []
    for qid, query in CATALOG.items():
        candidates, _stars = enumerate_candidates(
            to_analytical(query.sparql),
            stores[query.dataset],
            cached_profile(tiny_graphs[query.dataset]),
            EngineConfig(),
        )
        priced += [[qid, candidate.name, repr(candidate.total_cost)] for candidate in candidates]
    if sys.version_info < (3, 12):
        assert priced == PRICED_COSTS
    else:
        # ``total_cost`` is a builtin ``sum`` of floats, which 3.12 made
        # compensated: the table (captured on 3.11) may be an ulp away.
        assert [row[:2] for row in priced] == [row[:2] for row in PRICED_COSTS]
        assert [float(row[2]) for row in priced] == pytest.approx(
            [float(row[2]) for row in PRICED_COSTS], rel=1e-12
        )


@pytest.mark.parametrize("qid, name", CASES)
def test_the_priced_jobs_are_the_executed_jobs(qid, name, tiny_graphs):
    query = CATALOG[qid]
    report = make_engine("rapid-analytics").execute(
        to_analytical(query.sparql),
        tiny_graphs[query.dataset],
        EngineConfig(planner="cost", plan_decision=name),
    )
    choice = report.plan_choice
    assert (choice.chosen, choice.source) == (name, "cached")
    candidate = choice.candidate(name)
    executed = report.stats.jobs
    assert [estimate.name for estimate in candidate.jobs] == [job.name for job in executed]
    for estimate, job in zip(candidate.jobs, executed):
        assert job.estimate is estimate
        assert estimate.map_only == job.map_only
    # The first cycle reads only equivalence-class files, whose volumes
    # the fold takes from the store manifest: exact, not estimated.
    first, ran = candidate.jobs[0], executed[0]
    assert first.input_bytes == ran.input_bytes + ran.side_input_bytes
    assert first.map_tasks == ran.map_tasks
