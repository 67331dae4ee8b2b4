"""Sharded accounting equals its ``reference_mode()`` recomputation.

The sharded driver hands three kinds of pre-computed volumes to the
simulator instead of letting it size the records again: ``raw_hint`` on
``gather`` and on the store parts, the size pins on every envelope, and
the assemble jobs' ``shuffle_bytes_hint``.  Each must equal what
``estimate_size`` of the decoded records says.  With the caches off the
shuffle hint is ignored and every pin and total recomputed, so a sharded
run under ``reference_mode()`` is the reference: every ``JobStats``
volume, the priced cost and the rows must be equal -- and, independently,
every hint a cached run hands over is recomputed where it is consumed.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.engines import make_engine
from repro.mapreduce import runner
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.cost import estimate_size, estimate_total_size
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import HDFS
from repro.ntga.engine import execute_batch
from repro.perf import reference_mode
from repro.shard.partition import PARTITIONERS
from tests.conftest import bench_config, catalog_graph, catalog_query

#: A slice of the catalog: single- and multi-grouping queries of each
#: dataset, α-joins with and without a TG_Join (broadcast) cycle.
QUERIES = ("MG1", "MG3", "G6", "MG9", "MG11", "MG12")
SHARD_COUNTS = (2, 4, 7)


def job_accounting(stats):
    """What the driver's hints could change, job by job (``repr`` of the
    cost: equal floats, not close ones)."""
    return [
        (
            job.name,
            job.input_bytes,
            job.side_input_bytes,
            job.shuffle_bytes,
            job.output_bytes,
            job.exchange_bytes,
            repr(job.cost_seconds),
        )
        for job in stats.jobs
    ]


@pytest.fixture
def hint_audit(monkeypatch):
    """Recompute, with the caches off, every hint where it is consumed:
    ``HDFS.write``'s ``raw_hint`` and ``_sort_shuffle``'s job hint.
    Yields the count of hints seen, by kind."""
    seen: Counter = Counter()
    write, sort_shuffle = HDFS.write, runner._sort_shuffle

    def audited_write(self, path, records, compressed=False, raw_hint=None):
        records = list(records)
        if raw_hint is not None:
            seen["raw_hint"] += 1
            with reference_mode():
                assert raw_hint == estimate_total_size(records), path
        return write(self, path, records, compressed, raw_hint)

    def audited_sort_shuffle(job, shuffle_pairs, counters):
        by_key, shuffle_bytes = sort_shuffle(job, shuffle_pairs, counters)
        if job.shuffle_bytes_hint is not None:
            seen["shuffle_hint"] += 1
            with reference_mode():
                assert shuffle_bytes == sum(
                    estimate_size(key) + estimate_size(value)
                    for key, value in shuffle_pairs
                ), job.name
        return by_key, shuffle_bytes

    monkeypatch.setattr(HDFS, "write", audited_write)
    monkeypatch.setattr(runner, "_sort_shuffle", audited_sort_shuffle)
    return seen


@pytest.fixture(scope="module")
def cases(request):
    engine = make_engine("rapid-analytics")

    def run(qid, **sharding):
        config = replace(bench_config(qid), **sharding)
        return engine.execute(catalog_query(qid), catalog_graph(request, qid), config)

    return run


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("strategy", PARTITIONERS)
def test_sharded_accounting_equals_the_reference_recomputation(
    strategy, shards, cases, hint_audit
):
    for qid in QUERIES:
        cached = cases(qid, shards=shards, partitioner=strategy)
        with reference_mode():
            reference = cases(qid, shards=shards, partitioner=strategy)
        assert job_accounting(cached.stats) == job_accounting(reference.stats), qid
        assert repr(cached.cost_seconds) == repr(reference.cost_seconds), qid
        assert cached.rows == reference.rows, qid
    # Every cached run handed over both kinds of hint (the reference
    # runs hand over raw_hints only -- recomputed ones -- checked as well).
    assert hint_audit["raw_hint"] > len(QUERIES) * shards
    assert hint_audit["shuffle_hint"] >= len(QUERIES) * shards


def test_a_merged_batch_accounts_like_its_reference(chem_tiny, hint_audit):
    queries = [catalog_query(qid) for qid in ("MG6", "MG7")]
    config = replace(bench_config("MG6"), shards=3, partitioner="locality")
    cached = execute_batch(queries, chem_tiny, config)
    with reference_mode():
        reference = execute_batch(queries, chem_tiny, config)
    assert job_accounting(cached.stats) == job_accounting(reference.stats)
    assert cached.rows_by_query == reference.rows_by_query
    assert hint_audit["shuffle_hint"]


def test_a_recovered_run_accounts_like_its_reference(bsbm_small, hint_audit):
    """A resubmission re-derives every hint from the stored envelopes;
    skipped jobs replay their committed stats.  (Seed 81 aborts the
    TG_AgJ assemble job of shard 2 and salvages the fourteen per-shard
    jobs committed before it.)"""
    config = replace(
        bench_config("MG1"),
        shards=4,
        partitioner="hash",
        fault_plan=FaultPlan(seed=81, task_failure_rate=0.15, max_attempts=2),
        recovery=RecoveryPolicy(),
    )
    engine = make_engine("rapid-analytics")
    query = catalog_query("MG1")
    cached = engine.execute(query, bsbm_small, config)
    with reference_mode():
        reference = engine.execute(query, bsbm_small, config)
    assert cached.stats.recovery.resubmissions >= 1
    assert job_accounting(cached.stats) == job_accounting(reference.stats)
    assert repr(cached.cost_seconds) == repr(reference.cost_seconds)
    assert cached.rows == reference.rows
    assert hint_audit["shuffle_hint"]
