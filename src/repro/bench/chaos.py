"""Chaos soak harness: ``repro bench <experiment> --chaos seeds=N,rate=p``.

Runs one paper experiment across a matrix of seeded fault plans with
checkpointed recovery enabled, and checks the headline robustness
contract end to end: **every resumed run completes with rows and base
counters bit-identical to the fault-free run**, while the salvage
accounting quantifies how much work each engine's checkpoints saved.

This is the paper's workflow-length argument restated as a resilience
experiment: naive Hive's 9-13 cycle plans run bigger jobs and carry a
bigger commit ledger, so each failure wastes more simulated work and
each re-submission re-validates more committed state than
RAPIDAnalytics' 3-4 cycle plans — the report's per-engine
``lost_seconds_per_failure`` makes the gap explicit.

The report (schema ``repro-chaos-soak/v1``) is fully deterministic for
a fixed spec: seeded fault plans, simulated costs, no wall-clock.  A
committed report doubles as a golden (:data:`KIND`, checked by
:func:`repro.report.check_golden`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any

from repro.ambient import Field, parse_spec
from repro.bench.arms import experiment_runs, versus_baseline
from repro.errors import CheckpointError
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan
from repro.report import ReportKind

#: Schema tag for the chaos soak report (bump on shape changes).
CHAOS_SCHEMA = "repro-chaos-soak/v1"

#: ``--chaos`` keys (DESIGN.md §7.5 has the grammar).
_SPEC_FIELDS = {
    "seeds": Field(int, required=True),
    "rate": Field(float, required=True),
    "attempts": Field(int),
    "budget": Field(int),
    "straggler": Field(float, "straggler_rate"),
    "write": Field(float, "write_failure_rate"),
}


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed ``--chaos`` matrix: seeds 1..N, one fault plan per seed.

    ``attempts`` defaults to 1 (tighter than the simulator's Hadoop
    default of 4): a task aborts its job with ``rate**attempts`` odds,
    and the soak exists to exercise the abort/resume path, not to watch
    per-task retries absorb everything.  The generous resubmission
    budget matches: a soak run should finish through recovery, so
    budget exhaustion stays an explicit opt-in (`budget=...`) rather
    than a default failure mode.
    """

    seeds: int
    rate: float
    attempts: int = 1
    budget: int = 64
    straggler_rate: float = 0.0
    write_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise CheckpointError("seeds must be >= 1")
        # The plan's and the policy's own validators check everything
        # else before anything runs.
        self.plan_for_seed(1)
        self.policy()

    @classmethod
    def from_spec(cls, text: str) -> "ChaosSpec":
        """Parse ``seeds=N,rate=p[,attempts=a][,budget=b][,straggler=s][,write=w]``."""
        return parse_spec(text, "chaos", CheckpointError, _SPEC_FIELDS, cls)

    def plan_for_seed(self, seed: int) -> FaultPlan:
        return FaultPlan(
            seed=seed,
            task_failure_rate=self.rate,
            straggler_rate=self.straggler_rate,
            hdfs_write_failure_rate=self.write_failure_rate,
            max_attempts=self.attempts,
        )

    def policy(self) -> RecoveryPolicy:
        return RecoveryPolicy(max_resubmissions=self.budget)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _per_failure(total: float, failures: int) -> float | None:
    return round(total / failures, 6) if failures else None


def _summary(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One engine's rows across the soak matrix, rolled up."""
    done = [run for run in runs if run["completed"]]
    # RecoveryStats fields, summed.
    totals: dict[str, float] = defaultdict(float)
    for run in done:
        for name, value in run["recovery"].items():
            totals[name] += float(value)
    failures = int(totals["resubmissions"])
    lost = totals["wasted_seconds"] + totals["overhead_seconds"]
    at_risk = totals["salvaged_seconds"] + lost
    return {
        "runs": len(runs),
        "completed": len(done),
        "bit_identical": all(
            run["rows_match_baseline"] and run["base_counters_match_baseline"]
            for run in runs
        ),
        "failures": failures,
        "jobs_skipped": int(totals["jobs_skipped"]),
        "salvaged_bytes": int(totals["salvaged_bytes"]),
        "salvaged_seconds": round(totals["salvaged_seconds"], 6),
        "wasted_seconds": round(totals["wasted_seconds"], 6),
        "overhead_seconds": round(totals["overhead_seconds"], 6),
        "lost_seconds": round(lost, 6),
        # The headline comparison: how much simulated work one failure
        # costs this engine (the aborted attempt's waste plus the
        # resubmission's checkpoint-validation overhead).  Long workflows
        # run bigger jobs and carry bigger ledgers, so hive-naive loses
        # strictly more here than rapid-analytics.
        "lost_seconds_per_failure": _per_failure(lost, failures),
        "salvaged_seconds_per_failure": _per_failure(totals["salvaged_seconds"], failures),
        # Fraction of at-risk work (salvaged + lost) the checkpoints
        # actually saved across the matrix.
        "salvage_ratio": round(totals["salvaged_seconds"] / at_risk, 6) if at_risk else None,
    }


def chaos_soak_report(
    experiment: str,
    spec: ChaosSpec,
    graph=None,
) -> dict[str, Any]:
    """Run *experiment* fault-free, then once per seed with recovery on.

    Every chaos run is compared against the fault-free baseline: its
    rows (order-sensitive digest) and base counters must match exactly,
    its salvage accounting is recorded, and per-engine totals summarize
    how much work the checkpoints saved versus lost per failure.
    """
    seeds = range(1, spec.seeds + 1)
    variants = {
        f"seed{seed}": {"fault_plan": spec.plan_for_seed(seed), "recovery": spec.policy()}
        for seed in seeds
    }
    exp, outcomes = experiment_runs(experiment, "chaos experiment", variants, graph)
    runs: list[dict[str, Any]] = []
    for seed in seeds:
        for qid in exp.queries:
            for engine in exp.engines:
                run = outcomes[f"seed{seed}", qid, engine]
                runs.append(
                    {
                        **versus_baseline(run, outcomes["baseline", qid, engine]),
                        "seed": seed,
                        "completed": not run.failed,
                        "recovery": run.recovery,
                        "chaos_cost_seconds": None
                        if run.failed
                        else repr(run.cost_seconds),
                    }
                )
    summary = {
        engine: _summary([run for run in runs if run["engine"] == engine])
        for engine in exp.engines
    }
    naive, rapid = (
        summary.get(engine, {}).get("lost_seconds_per_failure")
        for engine in ("hive-naive", "rapid-analytics")
    )
    verdicts = {
        "all_complete": all(run["completed"] for run in runs),
        "all_bit_identical": all(stats["bit_identical"] for stats in summary.values()),
        "hive_naive_loses_more_per_failure": naive > rapid
        if naive is not None and rapid is not None
        else None,
    }
    return {
        "schema": CHAOS_SCHEMA,
        "experiment": experiment,
        "dataset": exp.dataset,
        "preset": exp.preset,
        "chaos": spec.as_dict(),
        "engines": list(exp.engines),
        "queries": list(exp.queries),
        "runs": runs,
        "summary": summary,
        "verdicts": verdicts,
    }


def render_chaos_report(report: dict[str, Any]) -> str:
    """Terminal view: per-engine salvage across the soak matrix."""
    chaos = report["chaos"]
    lines = [
        f"{report['experiment']} chaos soak "
        f"(seeds=1..{chaos['seeds']}, rate={chaos['rate']}, "
        f"attempts={chaos['attempts']}, budget={chaos['budget']})",
        f"{'engine':18s} {'runs':>5s} {'fails':>6s} {'skips':>6s} "
        f"{'salvaged':>11s} {'wasted':>10s} {'overhead':>10s} {'lost/fail':>10s}",
    ]
    for engine in report["engines"]:
        stats = report["summary"][engine]
        per_failure = stats["lost_seconds_per_failure"]
        lines.append(
            f"{engine:18s} {stats['runs']:5d} {stats['failures']:6d} "
            f"{stats['jobs_skipped']:6d} {stats['salvaged_seconds']:10.1f}s "
            f"{stats['wasted_seconds']:9.1f}s {stats['overhead_seconds']:9.1f}s "
            + (f"{per_failure:9.1f}s" if per_failure is not None else f"{'-':>10s}")
        )
    verdicts = report["verdicts"]
    lines.append(
        f"all runs completed: {verdicts['all_complete']}; "
        f"rows+counters bit-identical to fault-free: "
        f"{verdicts['all_bit_identical']}"
    )
    if verdicts["hive_naive_loses_more_per_failure"] is not None:
        lines.append(
            "hive-naive loses more work per failure than rapid-analytics: "
            f"{verdicts['hive_naive_loses_more_per_failure']}"
        )
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    bad = [
        f"seed{run['seed']}:{run['qid']}/{run['engine']}"
        for run in report["runs"]
        # An aborted run matches nothing.
        if not (run["rows_match_baseline"] and run["base_counters_match_baseline"])
    ]
    return [f"chaos runs not bit-identical to fault-free: {bad}"] if bad else []


#: A diff against a committed report catches any checkpoint/resume change
#: that moves a salvage number, a resumed cost, or an invariant verdict.
KIND = ReportKind(
    schema=CHAOS_SCHEMA,
    label="chaos golden",
    head=("schema", "experiment", "dataset", "preset", "chaos", "engines", "queries"),
    key=("seed", "qid", "engine"),
    tail=("summary", "verdicts"),
    rerun=lambda golden: chaos_soak_report(
        golden["experiment"], ChaosSpec(**golden["chaos"])
    ),
    render=render_chaos_report,
    violations=_violations,
)
