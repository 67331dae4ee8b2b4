"""Partition invariance for merged MQO batches and the served path.

The composition matrix pins every catalog query, partitioner and shard
count to the unsharded run.  A merged batch is an NTGA plan like any
other, so the same invariance holds for it: the cases are generated,
not listed -- every pair of catalog queries the composite rewrite can
merge, under one shard configuration per partitioner -- and the sharded
answers must be **bit-identical** to the unsharded batch and the solo
runs (``==`` on the raw row lists, order included).
"""

from dataclasses import replace
from itertools import combinations

import pytest

from repro.bench.catalog import CATALOG
from repro.errors import OverlapError
from repro.ntga.composite import build_composite_n
from repro.ntga.engine import execute_batch
from repro.shard.partition import PARTITIONERS
from tests.conftest import bench_config, catalog_graph, catalog_query
from tests.integration import test_composition_matrix as matrix
from tests.integration.test_composition_matrix import AXIS, QIDS, SHARD_COUNTS, Cell

#: The matrix's shard cells under this suite's ids.
test_sharded_rows_bit_identical_to_unsharded = matrix.view(
    lambda qid, strategy, shards: [
        Cell(qid, "rapid-analytics", "bench", AXIS["bench", f"shards={shards},{strategy}"])
    ],
    [(q, p, n) for q in QIDS for p in PARTITIONERS for n in SHARD_COUNTS],
)
test_rapid_plus_sharded_matches_unsharded = matrix.view(
    lambda qid: [
        Cell(qid, "rapid-plus", "default", AXIS["default", f"shards=4,{strategy}"])
        for strategy in PARTITIONERS
    ],
    [("MG1",), ("MG6",), ("MG11",)],
)

BATCH_SHARDINGS = ((2, "hash"), (3, "locality"), (4, "min-edge-cut"))


def _mergeable_pairs():
    pairs = []
    for first, second in combinations(sorted(CATALOG), 2):
        if CATALOG[first].dataset != CATALOG[second].dataset:
            continue
        try:
            build_composite_n(
                [*catalog_query(first).subqueries, *catalog_query(second).subqueries]
            )
        except OverlapError:
            continue
        pairs.append((first, second))
    return pairs


MERGEABLE_PAIRS = _mergeable_pairs()


def test_the_generator_covers_every_dataset_and_partitioner():
    assert {CATALOG[first].dataset for first, _ in MERGEABLE_PAIRS} == {
        query.dataset for query in CATALOG.values()
    }
    assert len(MERGEABLE_PAIRS) >= 20
    assert {strategy for _, strategy in BATCH_SHARDINGS} == set(PARTITIONERS)


@pytest.fixture(scope="module")
def batch_cases(request, base_run):
    """Per mergeable pair: its queries, graph, config and the unsharded
    batch's per-query rows -- themselves checked against the solo runs."""
    cases = {}
    for pair in MERGEABLE_PAIRS:
        graph, config = catalog_graph(request, pair[0]), bench_config(pair[0])
        queries = [catalog_query(qid) for qid in pair]
        rows = execute_batch(queries, graph, config).rows_by_query
        assert rows == [base_run(qid, "rapid-analytics").rows for qid in pair], pair
        cases[pair] = (queries, graph, config, rows)
    return cases


@pytest.mark.parametrize("shards, strategy", BATCH_SHARDINGS)
@pytest.mark.parametrize("pair", MERGEABLE_PAIRS, ids="+".join)
def test_sharded_batch_rows_bit_identical_to_unsharded_and_solo(
    pair, shards, strategy, batch_cases
):
    queries, graph, config, expected = batch_cases[pair]
    batch = execute_batch(
        queries, graph, replace(config, shards=shards, partitioner=strategy)
    )
    assert batch.rows_by_query == expected
    assert any("@s" in job.name for job in batch.stats.jobs)


@pytest.mark.parametrize("shards, strategy", BATCH_SHARDINGS)
def test_sharded_batch_under_faults_recovers_or_aborts_typed(
    shards, strategy, batch_cases
):
    """Faults never change rows: with recovery on, a faulted sharded
    batch returns the fault-free rows, or exhausts its resubmission
    budget with the typed error -- never another outcome."""
    from repro.errors import WorkflowAbortedError
    from repro.mapreduce.checkpoint import RecoveryPolicy
    from repro.mapreduce.faults import FaultPlan

    aborted, resubmissions = [], 0
    for pair, (queries, graph, config, expected) in batch_cases.items():
        faulty = replace(
            config,
            shards=shards,
            partitioner=strategy,
            fault_plan=FaultPlan(seed=7, task_failure_rate=0.15, max_attempts=2),
            recovery=RecoveryPolicy(),
        )
        try:
            batch = execute_batch(queries, graph, faulty)
        except WorkflowAbortedError:
            aborted.append(pair)
            continue
        assert batch.rows_by_query == expected, pair
        resubmissions += batch.stats.counters["workflow_resubmissions"]
    # The plan is abort-prone on purpose (two attempts per task): jobs
    # must have aborted, and recovery must have carried most of them.
    assert resubmissions > 0
    assert len(aborted) <= len(batch_cases) // 4, aborted


def test_served_overlapping_requests_merge_over_a_sharded_engine(chem_tiny, base_run):
    """The fence this replaced was a live bug: two overlapping requests
    in one window over ``shards=2`` both came back ``failed`` while
    either alone succeeded."""
    from repro.core.results import rows_digest
    from repro.serve.service import OK, QueryService, ServeRequest, ServiceConfig

    pair = ("G8", "MG6")
    assert pair in MERGEABLE_PAIRS
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=replace(bench_config("MG6"), shards=2)),
    )
    responses = service.serve(
        [
            ServeRequest(CATALOG[qid].sparql, arrival=0.01 * (index + 1), label=qid)
            for index, qid in enumerate(pair)
        ]
    )
    assert [(r.status, r.source, r.batch_size) for r in responses] == [
        (OK, "batch", 2)
    ] * 2
    for response in responses:
        assert rows_digest(response.rows) == rows_digest(
            base_run(response.label, "rapid-analytics").rows
        )
