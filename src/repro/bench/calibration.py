"""Planner calibration baseline: q-error stats for the MG workload.

The PR 7 cost planner prices candidate plans with the enumerator's
cardinality and cost estimates; :mod:`repro.obs.calibration` watches how
far those estimates drift from the executed
:class:`~repro.mapreduce.runner.JobStats` in live serving.  This module
pins the *baseline*: each catalog query is run once on RAPIDAnalytics
under the cost planner (the A/B loop's one ``cost`` arm,
:mod:`repro.bench.arms`) and the per-cycle estimate-vs-actual q-errors are
summarised per query — count, mean, max, and the drift verdict the
monitor would emit.

The report (``repro-calibration/v1``) is what
``benchmarks/golden/calibration-mg.json`` pins.  Any estimator, enumerator,
or cost-model change that moves a q-error moves the golden, so the
calibration telemetry cannot silently rot: a "better" estimator must
regenerate the golden and show its numbers.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bench.arms import CATALOG_ENGINE, DEFAULT_QUERIES, catalog_runs
from repro.core.results import EngineConfig
from repro.obs.calibration import CalibrationMonitor
from repro.report import ReportKind

CALIBRATION_SCHEMA = "repro-calibration/v1"

def calibration_report(qids: Iterable[str] = DEFAULT_QUERIES) -> dict[str, Any]:
    """Run *qids* under the cost planner and summarise per-query q-errors."""
    qids = list(qids)
    monitor = CalibrationMonitor()
    runs: list[dict[str, Any]] = []
    for run in catalog_runs(qids, {"cost": EngineConfig(planner="cost")}):
        report = run.reports["cost"]
        runs.append(
            {
                **run.head,
                "chosen": report.plan_choice.chosen,
                "source": report.plan_choice.source,
                "cycles": report.cycles,
                "cycles_compared": monitor.record_report(run.head["qid"], report),
                "rows": len(report.rows),
            }
        )
    calibration = monitor.report()
    by_query = {entry["query"]: entry for entry in calibration["queries"]}
    for run in runs:
        entry = by_query[run["qid"]]
        run["cardinality_q_error"] = entry["cardinality_q_error"]
        run["cost_q_error"] = entry["cost_q_error"]
        run["verdict"] = entry["verdict"]
    return {
        "schema": CALIBRATION_SCHEMA,
        "engine": CATALOG_ENGINE,
        "queries": qids,
        "runs": runs,
        "thresholds": calibration["thresholds"],
        "summary": {
            "observations": calibration["observations"],
            "drifting": calibration["drifting"],
            "verdict": calibration["verdict"],
        },
    }


def render_calibration_report(report: dict[str, Any]) -> str:
    """Terminal view: one line per query, both q-error dimensions."""
    lines = [
        f"planner calibration ({report['engine']}, cost planner):",
        f"{'qid':5s} {'chosen':22s} {'cyc':>4s} "
        f"{'card mean':>10s} {'card max':>9s} "
        f"{'cost mean':>10s} {'cost max':>9s}  verdict",
    ]
    for run in report["runs"]:
        card, cost = run["cardinality_q_error"], run["cost_q_error"]
        lines.append(
            f"{run['qid']:5s} {run['chosen']:22s} {run['cycles_compared']:4d} "
            f"{card['mean']:10.3f} {card['max']:9.3f} "
            f"{cost['mean']:10.3f} {cost['max']:9.3f}  {run['verdict']}"
        )
    summary = report["summary"]
    thresholds = report["thresholds"]
    lines.append(
        f"observations: {summary['observations']}; drifting: "
        f"{summary['drifting']} (card > {thresholds['cardinality_q_error_max']}x "
        f"or cost > {thresholds['cost_q_error_max']}x); "
        f"verdict: {summary['verdict']}"
    )
    return "\n".join(lines)


#: A diff against a committed report catches any estimator or cost-model
#: change that moves a q-error stat, a plan choice, or the drift verdict.
KIND = ReportKind(
    schema=CALIBRATION_SCHEMA,
    label="calibration golden",
    head=("schema", "engine", "queries", "thresholds", "summary"),
    key=("qid",),
    tail=(),
    rerun=lambda golden: calibration_report(golden["queries"]),
    render=render_calibration_report,
)
