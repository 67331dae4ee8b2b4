"""Fault-resilience benchmark: ``repro bench <experiment> --faults``.

Runs one paper experiment twice on the same graph — fault-free, then
under a seeded :class:`~repro.mapreduce.faults.FaultPlan`: the
``baseline`` and ``faulted`` arms of :mod:`repro.bench.arms` — and reports
per-(query, engine) cost degradation.  This reproduces the argument the
paper makes structurally: RAPIDAnalytics' shorter workflows (3-4 MR
cycles vs naive Hive's 9-13) expose fewer tasks and fewer materialized
bytes to failure, so the same fault plan degrades them less.

The report is fully deterministic (seeded plan, simulated costs, no
wall-clock), so a committed report doubles as a golden: the CI smoke
re-runs one small config and requires a bit-identical match, catching
recovery-path regressions on every push.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.bench.arms import experiment_runs, versus_baseline
from repro.mapreduce.faults import FAULT_COUNTERS, FaultPlan
from repro.rdf.graph import Graph
from repro.report import ReportKind

#: Schema tag for the resilience report (bump on shape changes).
FAULTS_SCHEMA = "repro-fault-resilience/v1"


def _summary(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One engine's rows, rolled up."""
    done = [run for run in runs if not run["failed"]]
    degradations = [run["degradation"] for run in done]
    extras = [run["extra_cost_seconds"] for run in done]
    return {
        "mean_degradation": round(sum(degradations) / len(degradations), 6)
        if done
        else None,
        "max_degradation": round(max(degradations), 6) if done else None,
        # Absolute recovery overhead in simulated seconds — the headline
        # "degrades more gracefully" metric: a short workflow exposes
        # fewer tasks and fewer materialized bytes, so the same plan
        # costs it fewer extra seconds.
        "mean_extra_cost_seconds": round(sum(extras) / len(extras), 6) if done else None,
        "total_extra_cost_seconds": round(sum(extras), 6) if done else None,
        "aborted_runs": len(runs) - len(done),
    }


def fault_resilience_report(
    experiment: str,
    plan: FaultPlan,
    graph: Graph | None = None,
) -> dict[str, Any]:
    """Run *experiment* fault-free and under *plan*; return the report.

    Per run the report records both costs (as exact ``repr`` strings,
    like the goldens), the degradation factor, the fault counters, and
    two invariant verdicts: the faulted run's result rows and its base
    (non-fault) counters must match the fault-free run exactly.
    """
    exp, outcomes = experiment_runs(
        experiment, "fault experiment", {"faulted": {"fault_plan": plan}}, graph
    )
    runs: list[dict[str, Any]] = []
    for qid in exp.queries:
        for engine in exp.engines:
            run, base = outcomes["faulted", qid, engine], outcomes["baseline", qid, engine]
            runs.append(
                {
                    **versus_baseline(run, base),
                    "cycles": run.cycles,
                    "faulted_cost_seconds": repr(run.cost_seconds),
                    "fault_counters": {
                        name: value
                        for name, value in run.counters.items()
                        if name in FAULT_COUNTERS
                    },
                    # Aborted: no finite cost to compare.
                    "degradation": None
                    if run.failed
                    else round(run.cost_seconds / base.cost_seconds, 6),
                }
            )
    summary = {
        engine: _summary([run for run in runs if run["engine"] == engine])
        for engine in exp.engines
    }
    return {
        "schema": FAULTS_SCHEMA,
        "experiment": experiment,
        "dataset": exp.dataset,
        "preset": exp.preset,
        "fault_plan": asdict(plan),
        "engines": list(exp.engines),
        "queries": list(exp.queries),
        "runs": runs,
        "summary": summary,
    }


def render_fault_report(report: dict[str, Any]) -> str:
    """Terminal table: per-query degradation factor per engine."""
    plan = report["fault_plan"]
    lines = [
        f"{report['experiment']} under faults "
        f"(seed={plan['seed']}, task_failure_rate={plan['task_failure_rate']}, "
        f"straggler_rate={plan['straggler_rate']}, "
        f"write_failure_rate={plan['hdfs_write_failure_rate']})",
        f"{'query':6s} {'engine':18s} {'baseline':>10s} {'faulted':>10s} "
        f"{'extra':>9s} {'degr.':>7s} {'retries':>8s} {'spec':>5s} {'wasted':>10s}",
    ]
    for run in report["runs"]:
        counters = run["fault_counters"]
        if run["failed"]:
            outcome = f"{'ABORTED':>10s} {run['failed']:>18s}"
            lines.append(f"{run['qid']:6s} {run['engine']:18s} {outcome}")
            continue
        lines.append(
            f"{run['qid']:6s} {run['engine']:18s} "
            f"{float(run['baseline_cost_seconds']):9.1f}s "
            f"{float(run['faulted_cost_seconds']):9.1f}s "
            f"{run['extra_cost_seconds']:+8.1f}s "
            f"{run['degradation']:6.3f}x {counters.get('retried_tasks', 0):8d} "
            f"{counters.get('speculative_tasks', 0):5d} "
            f"{counters.get('wasted_bytes', 0):9d}B"
        )
    lines.append("mean extra cost: " + "  ".join(
        f"{engine}={stats['mean_extra_cost_seconds']}s"
        for engine, stats in sorted(report["summary"].items())
    ))
    lines.append("mean degradation: " + "  ".join(
        f"{engine}={stats['mean_degradation']}x"
        for engine, stats in sorted(report["summary"].items())
    ))
    lines.append(f"results identical to fault-free run: {not _violations(report)}")
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    bad = [
        f"{run['qid']}/{run['engine']}"
        for run in report["runs"]
        if not run["failed"]
        and not (run["rows_match_baseline"] and run["base_counters_match_baseline"])
    ]
    return [f"results drifted under faults: {bad}"] if bad else []


#: A diff against a committed report catches any recovery-path change
#: that moves a fault counter or a recovered cost.
KIND = ReportKind(
    schema=FAULTS_SCHEMA,
    label="fault golden",
    head=(
        "schema", "experiment", "dataset", "preset", "fault_plan", "engines", "queries",
    ),
    key=("qid", "engine"),
    tail=("summary",),
    rerun=lambda golden: fault_resilience_report(
        golden["experiment"], FaultPlan(**golden["fault_plan"])
    ),
    render=render_fault_report,
    violations=_violations,
)
