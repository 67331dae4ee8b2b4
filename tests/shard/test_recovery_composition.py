"""Fault/recovery composition: a crash inside one shard's partial
evaluation recovers through the checkpoint ledger without re-running
other shards' committed jobs.

The scenario is fully deterministic: FaultPlan spec ``223,0.03,0,0,1``
(seed 223, 3% crash rate, max_attempts=1 so every injected crash aborts
its job) against MG1 on the tiny BSBM preset at shards=4/min-edge-cut
crashes exactly one per-shard job — the TG_AgJ partial on shard 2
(``ra:agg-join@s2``) — after the α-join's eight per-shard jobs and the
agg-join partials on shards 0 and 1 have committed.  The resubmission
must skip exactly those ten committed jobs and recompute only the
failed shard onward.
"""

import pytest

from repro import obs
from repro.bench.catalog import get_query
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan

FAULT_SPEC = "223,0.03,0,0,1"
CRASHED_JOB = "ra:agg-join@s2"
#: The jobs durably committed before the crash: every per-shard job of
#: the α-join cycle plus the agg-join partials that ran ahead of the
#: crashed shard.  A resubmission salvages exactly this set.
SALVAGED_JOBS = frozenset(
    [f"ra:alpha-join-0@s{i}" for i in range(4)]
    + [f"ra:alpha-join-0@r{i}" for i in range(4)]
    + ["ra:agg-join@s0", "ra:agg-join@s1"]
)


@pytest.fixture(scope="module")
def graph():
    return bsbm.generate(bsbm.preset("tiny"))


@pytest.fixture(scope="module")
def query():
    return to_analytical(get_query("MG1").sparql)


@pytest.fixture(scope="module")
def fault_free(graph, query):
    return make_engine("rapid-analytics").execute(
        query, graph, EngineConfig(shards=4, partitioner="min-edge-cut")
    )


def test_partial_crash_recovers_without_rerunning_other_shards(
    graph, query, fault_free
):
    engine = make_engine("rapid-analytics")
    with obs.tracing() as recorder:
        report = engine.execute(
            query,
            graph,
            EngineConfig(
                shards=4,
                partitioner="min-edge-cut",
                fault_plan=FaultPlan.from_spec(FAULT_SPEC),
                recovery=RecoveryPolicy(),
            ),
        )

    # The crash happened inside one shard's partial evaluation.
    resumes = [e for e in recorder.events if e.name == "workflow-resume"]
    assert [e.attrs["job"] for e in resumes] == [CRASHED_JOB]

    # The resubmission salvaged exactly the committed per-shard jobs:
    # the whole α-join expansion plus the agg-join partials that ran
    # before the crashed shard — nothing re-executed, nothing missing.
    skips = [e for e in recorder.events if e.name == "checkpoint-skip"]
    assert {e.attrs["job"] for e in skips} == SALVAGED_JOBS
    assert len(skips) == len(SALVAGED_JOBS)

    counters = report.stats.counters.as_dict()
    assert counters["workflow_resubmissions"] == 1
    assert counters["jobs_skipped_by_checkpoint"] == len(SALVAGED_JOBS)
    assert counters["salvaged_bytes"] > 0

    # Recovery is accounting only: the recovered run's answers are
    # bit-identical to the fault-free sharded run (hence to unsharded).
    assert report.rows == fault_free.rows
    assert report.stats.total_exchange_bytes == fault_free.stats.total_exchange_bytes
    # The recovered run costs strictly more (wasted attempt + resubmit
    # overhead), never less.
    assert report.cost_seconds > fault_free.cost_seconds


def test_exchange_files_fingerprint_stably_across_resubmissions(graph, query):
    """Assemble jobs read driver-written exchange files; those files
    must be byte-stable across resubmissions or every assemble job's
    checkpoint would self-invalidate.  The salvaged set in the test
    above includes assemble jobs (``@r``) — this pins the property
    directly by asserting an assemble job skipped on resubmission."""
    engine = make_engine("rapid-analytics")
    with obs.tracing() as recorder:
        engine.execute(
            query,
            graph,
            EngineConfig(
                shards=4,
                partitioner="min-edge-cut",
                fault_plan=FaultPlan.from_spec(FAULT_SPEC),
                recovery=RecoveryPolicy(),
            ),
        )
    skipped = {e.attrs["job"] for e in recorder.events if e.name == "checkpoint-skip"}
    assert any("@r" in name for name in skipped)


#: COUNT(DISTINCT) is holistic: its partial state is a value set the
#: reducer grows in place -- the state a shared (uncopied) exchange
#: record would leak between two runs of the same assemble job.
HOLISTIC_QUERY = """
PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
SELECT ?f (SUM(?pr) AS ?sum) (COUNT(DISTINCT ?o) AS ?offers) {
  ?p a bsbm:ProductType1 ; bsbm:productFeature ?f .
  ?o bsbm:product ?p ; bsbm:price ?pr .
} GROUP BY ?f
"""


def test_assemble_jobs_rerun_over_the_same_exchange_files(graph):
    """Running the assemble jobs twice over one set of exchange files
    yields equal outputs and leaves the files -- their sized bytes and
    every accumulator partial in them -- untouched: what a resubmitted
    assemble job (and the once-only size pin on each envelope) needs."""
    from repro.mapreduce.hdfs import HDFS
    from repro.mapreduce.runner import MapReduceRunner
    from repro.ntga.physical import load_triplegroups
    from repro.ntga.planner import plan_rapid_analytics
    from repro.shard.execution import ShardedExecutor, _exchange_file, _part

    config = EngineConfig(shards=4, partitioner="hash")
    hdfs = HDFS()
    store = load_triplegroups(graph, hdfs)
    plan = plan_rapid_analytics(to_analytical(HOLISTIC_QUERY), store)
    runner = MapReduceRunner(hdfs, config.cluster, config.cost_model)
    executor = ShardedExecutor(runner, store, graph, config)
    executor.run(plan.jobs)
    (agg_join,) = [job for job in plan.jobs if "TG_AgJ" in job.labels]

    def exchange_state():
        files = [hdfs.read(_exchange_file(agg_join.output, s)) for s in range(4)]
        return [
            (
                file.raw_bytes,
                [
                    (record.order, key, [a.partial() for a in record.payload.accumulators])
                    for key, record in file.records
                ],
            )
            for file in files
        ]

    def assemble_outputs():
        for job in executor._assemble_jobs(agg_join, [0] * 4):
            runner.run_job(job)
        return [list(hdfs.read(_part(agg_join.output, s)).records) for s in range(4)]

    before = exchange_state()
    assert sum(len(partials) for _, partials in before) > 0
    first = assemble_outputs()
    second = assemble_outputs()
    assert first == second
    assert any(first)
    assert exchange_state() == before
