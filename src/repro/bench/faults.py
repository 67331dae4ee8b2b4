"""Fault-resilience benchmark: ``repro bench <experiment> --faults``.

Runs one paper experiment twice on the same graph — fault-free, then
under a seeded :class:`~repro.mapreduce.faults.FaultPlan` — and reports
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

from dataclasses import replace
from typing import Any

from repro.bench.catalog import get_query
from repro.bench.harness import QueryMeasurement, paper_experiment, run_experiment
from repro.datasets import generate
from repro.mapreduce.checkpoint import RECOVERY_COUNTERS
from repro.mapreduce.faults import FAULT_COUNTERS, FaultPlan
from repro.rdf.graph import Graph
from repro.report import ReportKind

#: Schema tag for the resilience report (bump on shape changes).
FAULTS_SCHEMA = "repro-fault-resilience/v1"

def _base_counters(measurement: QueryMeasurement) -> dict[str, int]:
    # Base = everything the fault layer AND the checkpoint/resume layer
    # do not own; this is the subset required to stay bit-identical to
    # the fault-free run (under recovery, resumed runs add the
    # RECOVERY_COUNTERS on top of an identical base).
    return {
        name: value
        for name, value in measurement.counters.items()
        if name not in FAULT_COUNTERS and name not in RECOVERY_COUNTERS
    }


def _fault_counters(measurement: QueryMeasurement) -> dict[str, int]:
    return {
        name: value
        for name, value in measurement.counters.items()
        if name in FAULT_COUNTERS
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
    _, dataset, preset, qids, engines, config_factory = paper_experiment(
        experiment, "fault experiment"
    )
    graph = graph if graph is not None else generate(dataset, preset)
    config = config_factory()
    queries = [get_query(qid) for qid in qids]

    baseline = run_experiment(
        f"{experiment}-fault-free", "fault-free baseline",
        queries, graph, engines, config, verify=False,
    )
    faulted = run_experiment(
        f"{experiment}-faulted", "seeded fault plan",
        queries, graph, engines, replace(config, fault_plan=plan), verify=False,
    )

    base_runs = {(m.qid, m.engine): m for m in baseline.measurements}
    runs: list[dict[str, Any]] = []
    degradations: dict[str, list[float]] = {engine: [] for engine in engines}
    extras: dict[str, list[float]] = {engine: [] for engine in engines}
    for measurement in faulted.measurements:
        base = base_runs[(measurement.qid, measurement.engine)]
        entry: dict[str, Any] = {
            "qid": measurement.qid,
            "engine": measurement.engine,
            "rows": measurement.rows,
            "cycles": measurement.cycles,
            "failed": measurement.failed,
            "baseline_cost_seconds": repr(base.cost_seconds),
            "faulted_cost_seconds": repr(measurement.cost_seconds),
            "fault_counters": dict(sorted(_fault_counters(measurement).items())),
            "rows_match_baseline": measurement.rows_digest == base.rows_digest,
            "base_counters_match_baseline": _base_counters(measurement)
            == _base_counters(base),
        }
        if measurement.failed:
            # Aborted: no finite cost to compare.
            entry["degradation"] = None
            entry["extra_cost_seconds"] = None
        else:
            extra = round(measurement.cost_seconds - base.cost_seconds, 6)
            degradation = round(measurement.cost_seconds / base.cost_seconds, 6)
            entry["degradation"] = degradation
            entry["extra_cost_seconds"] = extra
            degradations[measurement.engine].append(degradation)
            extras[measurement.engine].append(extra)
        runs.append(entry)

    summary = {
        engine: {
            "mean_degradation": round(sum(values) / len(values), 6) if values else None,
            "max_degradation": round(max(values), 6) if values else None,
            # Absolute recovery overhead in simulated seconds — the
            # headline "degrades more gracefully" metric: a short
            # workflow exposes fewer tasks and fewer materialized bytes,
            # so the same plan costs it fewer extra seconds.
            "mean_extra_cost_seconds": round(
                sum(extras[engine]) / len(extras[engine]), 6
            )
            if extras[engine]
            else None,
            "total_extra_cost_seconds": round(sum(extras[engine]), 6)
            if extras[engine]
            else None,
            "aborted_runs": sum(
                1 for r in runs if r["engine"] == engine and r["failed"]
            ),
        }
        for engine, values in degradations.items()
    }
    return {
        "schema": FAULTS_SCHEMA,
        "experiment": experiment,
        "dataset": dataset,
        "preset": preset,
        "fault_plan": {
            "seed": plan.seed,
            "task_failure_rate": plan.task_failure_rate,
            "straggler_rate": plan.straggler_rate,
            "straggler_slowdown": plan.straggler_slowdown,
            "hdfs_write_failure_rate": plan.hdfs_write_failure_rate,
            "max_attempts": plan.max_attempts,
            "speculation": plan.speculation,
        },
        "engines": list(engines),
        "queries": list(qids),
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
    invariant_ok = all(
        run["rows_match_baseline"] and run["base_counters_match_baseline"]
        for run in report["runs"]
        if not run["failed"]
    )
    lines.append(f"results identical to fault-free run: {invariant_ok}")
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
