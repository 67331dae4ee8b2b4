"""Partition-invariance differential suite.

Every catalog query, under every partitioning strategy and shard count
in the matrix, must produce answers **bit-identical** to the unsharded
single-cluster run — not just bag-equal: the sharded driver's order
tags promise the exact row list, including row order and duplicate
placement, so the comparison is ``==`` on the raw row lists.

The CI ``shard-smoke`` job re-runs the MG1–MG4 slice of this matrix
under two ``PYTHONHASHSEED`` values and compares the emitted report
bytes, which pins the suite's determinism across hash seeds.
"""

import pytest
from dataclasses import replace

from repro.bench.catalog import CATALOG
from repro.bench.harness import bsbm_config, chem_config, pubmed_config
from repro.core.engines import make_engine, to_analytical
from repro.shard.partition import PARTITIONERS

_GRAPH_FIXTURE = {"bsbm": "bsbm_small", "chem": "chem_tiny", "pubmed": "pubmed_tiny"}
_CONFIG_FACTORY = {"bsbm": bsbm_config, "chem": chem_config, "pubmed": pubmed_config}

SHARD_COUNTS = (1, 2, 4, 7)


@pytest.fixture(scope="module")
def analytical_cache():
    return {qid: to_analytical(query.sparql) for qid, query in CATALOG.items()}


@pytest.fixture(scope="module")
def bench_configs():
    return {dataset: factory() for dataset, factory in _CONFIG_FACTORY.items()}


@pytest.fixture(scope="module")
def engine():
    return make_engine("rapid-analytics")


@pytest.fixture(scope="module")
def unsharded_baseline(request, analytical_cache, bench_configs, engine):
    """The single-cluster answer rows for every catalog query — the
    oracle every sharded combination must reproduce exactly."""
    cache = {}
    for qid, query in CATALOG.items():
        graph = request.getfixturevalue(_GRAPH_FIXTURE[query.dataset])
        report = engine.execute(
            analytical_cache[qid], graph, bench_configs[query.dataset]
        )
        cache[qid] = report.rows
    return cache


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("strategy", PARTITIONERS)
@pytest.mark.parametrize("qid", sorted(CATALOG))
def test_sharded_rows_bit_identical_to_unsharded(
    request,
    qid,
    strategy,
    shards,
    analytical_cache,
    bench_configs,
    engine,
    unsharded_baseline,
):
    query = CATALOG[qid]
    graph = request.getfixturevalue(_GRAPH_FIXTURE[query.dataset])
    config = replace(
        bench_configs[query.dataset], shards=shards, partitioner=strategy
    )
    report = engine.execute(analytical_cache[qid], graph, config)
    assert report.rows == unsharded_baseline[qid], (
        f"{qid} under {strategy}/shards={shards} diverged from the "
        f"unsharded run (sharded {len(report.rows)} rows, unsharded "
        f"{len(unsharded_baseline[qid])})"
    )
    if shards == 1:
        assert report.stats.total_exchange_bytes == 0
    else:
        # N-way execution expands every logical cycle into per-shard
        # jobs; the job list must reflect the expansion.
        assert any("@s" in job.name for job in report.stats.jobs)


@pytest.mark.parametrize("qid", ["MG1", "MG6", "MG11"])
def test_rapid_plus_sharded_matches_unsharded(request, qid, analytical_cache):
    """The non-adaptive NTGA engine shares the sharded driver; one
    query per dataset pins that path too."""
    query = CATALOG[qid]
    graph = request.getfixturevalue(_GRAPH_FIXTURE[query.dataset])
    engine = make_engine("rapid-plus")
    base = engine.execute(analytical_cache[qid], graph)
    from repro.core.results import EngineConfig

    for strategy in PARTITIONERS:
        report = engine.execute(
            analytical_cache[qid],
            graph,
            EngineConfig(shards=4, partitioner=strategy),
        )
        assert report.rows == base.rows


# -- merged MQO batches through the sharded driver ------------------------------
#
# A merged batch is an NTGA plan like any other, so the same invariance
# holds for it.  The cases are generated, not listed: every pair of
# catalog queries the composite rewrite can merge, under one shard
# configuration per partitioner.

BATCH_SHARDINGS = ((2, "hash"), (3, "locality"), (4, "min-edge-cut"))


def _mergeable_pairs():
    from itertools import combinations

    from repro.errors import OverlapError
    from repro.ntga.composite import build_composite_n

    analytical = {qid: to_analytical(query.sparql) for qid, query in CATALOG.items()}
    pairs = []
    for first, second in combinations(sorted(CATALOG), 2):
        if CATALOG[first].dataset != CATALOG[second].dataset:
            continue
        try:
            build_composite_n(
                [*analytical[first].subqueries, *analytical[second].subqueries]
            )
        except OverlapError:
            continue
        pairs.append((first, second))
    return pairs


MERGEABLE_PAIRS = _mergeable_pairs()


def test_the_generator_covers_every_dataset_and_partitioner():
    assert {CATALOG[first].dataset for first, _ in MERGEABLE_PAIRS} == set(
        _GRAPH_FIXTURE
    )
    assert len(MERGEABLE_PAIRS) >= 20
    assert {strategy for _, strategy in BATCH_SHARDINGS} == set(PARTITIONERS)


@pytest.fixture(scope="module")
def batch_cases(request, analytical_cache, bench_configs, unsharded_baseline):
    """Per mergeable pair: its queries, graph, config and the unsharded
    batch's per-query rows -- themselves checked against the solo runs."""
    from repro.ntga.engine import execute_batch

    cases = {}
    for pair in MERGEABLE_PAIRS:
        dataset = CATALOG[pair[0]].dataset
        graph = request.getfixturevalue(_GRAPH_FIXTURE[dataset])
        queries = [analytical_cache[qid] for qid in pair]
        rows = execute_batch(queries, graph, bench_configs[dataset]).rows_by_query
        assert rows == [unsharded_baseline[qid] for qid in pair], pair
        cases[pair] = (queries, graph, bench_configs[dataset], rows)
    return cases


@pytest.mark.parametrize("shards, strategy", BATCH_SHARDINGS)
@pytest.mark.parametrize("pair", MERGEABLE_PAIRS, ids="+".join)
def test_sharded_batch_rows_bit_identical_to_unsharded_and_solo(
    pair, shards, strategy, batch_cases
):
    from repro.ntga.engine import execute_batch

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
    from repro.ntga.engine import execute_batch

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


def test_served_overlapping_requests_merge_over_a_sharded_engine(
    chem_tiny, unsharded_baseline
):
    """The fence this replaced was a live bug: two overlapping requests
    in one window over ``shards=2`` both came back ``failed`` while
    either alone succeeded."""
    from repro.core.results import rows_digest
    from repro.serve import OK, QueryService, ServeRequest, ServiceConfig

    pair = ("G8", "MG6")
    assert pair in MERGEABLE_PAIRS
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=replace(chem_config(), shards=2)),
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
            unsharded_baseline[response.label]
        )
