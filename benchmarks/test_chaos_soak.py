"""Chaos soak: checkpointed recovery salvages more of short workflows.

The paper's workflow-length argument, replayed as a resilience claim:
under the same seeded fault matrix with checkpointed recovery enabled,
every engine completes every MG query bit-identical to its fault-free
run — but each failure costs naive Hive's 9-11 cycle workflows strictly
more simulated work (wasted attempt + resubmission overhead over its
bigger commit ledger) than RAPIDAnalytics' 3-4 cycle plans.
"""

import pytest

from benchmarks.render_experiments import graph
from repro.bench.chaos import KIND, ChaosSpec, chaos_soak_report, render_chaos_report

# The CI smoke spec: three seeds at a 5% per-task failure rate, with
# attempts=1 so every injected failure aborts a job and exercises
# workflow resubmission (see ChaosSpec docs for the defaults).
SPEC = ChaosSpec.from_spec("seeds=3,rate=0.05")


@pytest.fixture(scope="module")
def figure8a_soak():
    return chaos_soak_report("figure8a", SPEC.plans(), SPEC.policy(), graph=graph("bsbm", "500k"))


def test_every_run_completes(figure8a_soak):
    for stats in figure8a_soak["summary"].values():
        assert stats["completed"] == stats["runs"] == 12
    for run in figure8a_soak["runs"]:
        assert not run["failed"], (run["seed"], run["qid"], run["engine"])


def test_resumed_runs_bit_identical_to_fault_free(figure8a_soak):
    assert KIND.violations(figure8a_soak) == []
    for run in figure8a_soak["runs"]:
        key = (run["seed"], run["qid"], run["engine"])
        assert run["rows_match_baseline"], key
        assert run["base_counters_match_baseline"], key


def test_soak_is_not_vacuous(figure8a_soak):
    """Every engine must abort and resume somewhere in the matrix, and
    resumption must actually skip checkpointed jobs."""
    for engine, stats in figure8a_soak["summary"].items():
        assert stats["failures"] > 0, engine
    skipped = sum(s["jobs_skipped"] for s in figure8a_soak["summary"].values())
    assert skipped > 0


def test_hive_naive_loses_more_work_per_failure(figure8a_soak):
    """The headline verdict: long workflows waste more per failure."""
    summary = figure8a_soak["summary"]
    naive = summary["hive-naive"]["lost_seconds_per_failure"]
    rapid = summary["rapid-analytics"]["lost_seconds_per_failure"]
    assert naive > rapid
    assert (
        "hive-naive loses more work per failure than rapid-analytics: True"
        in render_chaos_report(figure8a_soak)
    )


def test_recovery_surcharge_is_accounted(figure8a_soak):
    """A resumed run never costs less than fault-free, and its extra
    cost covers at least the recovery accounting (wasted attempts plus
    resubmission overhead) — salvage is bookkeeping, not free compute."""
    for run in figure8a_soak["runs"]:
        key = (run["seed"], run["qid"], run["engine"])
        assert run["extra_cost_seconds"] >= 0, key
        recovery = run["recovery"]
        accounted = recovery.get("wasted_seconds", 0.0) + recovery.get(
            "overhead_seconds", 0.0
        )
        assert run["extra_cost_seconds"] + 1e-3 >= accounted, key
