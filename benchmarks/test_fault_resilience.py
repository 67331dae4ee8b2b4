"""Fault resilience: shorter workflows degrade more gracefully.

The paper's structural argument, replayed under the seeded fault layer:
naive Hive's 9-11 cycle workflows expose more tasks, more shuffled
bytes, and more materialized intermediates to failure than
RAPIDAnalytics' 3-4 cycle plans, so the *same* fault plan costs Hive
strictly more extra (recovery) seconds on every MG query — its cost
advantage widens under faults.  Results stay bit-identical throughout.
This is ``--faults``: the chaos soak's one-plan, no-recovery case.
"""

import pytest

from repro.bench.chaos import chaos_soak_report
from repro.mapreduce.faults import FaultPlan

QUERIES = ("MG1", "MG2", "MG3", "MG4")

PLAN = FaultPlan.from_spec("7,0.05")


@pytest.fixture(scope="module")
def figure8a_report(bsbm_500k):
    return chaos_soak_report("figure8a", [PLAN], graph=bsbm_500k)


def _runs_by_key(report):
    return {(run["qid"], run["engine"]): run for run in report["runs"]}


def test_no_run_aborts_at_paper_rate(figure8a_report):
    assert all(not run["failed"] for run in figure8a_report["runs"])


def test_results_identical_under_faults(figure8a_report):
    for run in figure8a_report["runs"]:
        key = (run["qid"], run["engine"])
        assert run["rows_match_baseline"], key
        assert run["base_counters_match_baseline"], key


def test_faults_actually_fire(figure8a_report):
    """Per (query, engine) the plan must exercise the recovery paths."""
    for run in figure8a_report["runs"]:
        counters = run["fault_counters"]
        assert counters.get("retried_tasks", 0) + counters.get(
            "speculative_tasks", 0
        ) > 0, (run["qid"], run["engine"])
    totals = {}
    for run in figure8a_report["runs"]:
        for name, value in run["fault_counters"].items():
            totals[name] = totals.get(name, 0) + value
    assert totals.get("retried_tasks", 0) > 0
    assert totals.get("speculative_tasks", 0) > 0
    assert totals.get("wasted_bytes", 0) > 0


@pytest.mark.parametrize("qid", QUERIES)
def test_hive_naive_degrades_more_than_rapid_analytics(figure8a_report, qid):
    """Strictly more recovery seconds for the 9-11 cycle plans."""
    runs = _runs_by_key(figure8a_report)
    hive = runs[(qid, "hive-naive")]
    rapid = runs[(qid, "rapid-analytics")]
    assert hive["extra_cost_seconds"] > rapid["extra_cost_seconds"]


@pytest.mark.parametrize("qid", QUERIES)
def test_cost_advantage_widens_under_faults(figure8a_report, qid):
    runs = _runs_by_key(figure8a_report)
    hive = runs[(qid, "hive-naive")]
    rapid = runs[(qid, "rapid-analytics")]
    clean_gap = float(hive["baseline_cost_seconds"]) - float(
        rapid["baseline_cost_seconds"]
    )
    faulted_gap = float(hive["cost_seconds"]) - float(rapid["cost_seconds"])
    assert faulted_gap > clean_gap > 0


def test_mean_extra_cost_ordering(figure8a_report):
    summary = figure8a_report["summary"]
    assert (
        summary["hive-naive"]["mean_extra_cost_seconds"]
        > summary["rapid-analytics"]["mean_extra_cost_seconds"]
    )


def test_report_is_deterministic(bsbm_500k, figure8a_report):
    again = chaos_soak_report("figure8a", [PLAN], graph=bsbm_500k)
    assert again == figure8a_report
