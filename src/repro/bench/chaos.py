"""The fault-injection report: ``repro bench <experiment> --faults`` / ``--chaos``.

Runs one paper experiment fault-free — the ``baseline`` arm of
:mod:`repro.bench.arms` — and once under each of a list of seeded
:class:`~repro.mapreduce.faults.FaultPlan`\\ s, with checkpointed
recovery when a :class:`~repro.mapreduce.checkpoint.RecoveryPolicy` is
given.  ``--faults SPEC`` is the one-plan, no-recovery case; ``--chaos
seeds=N,rate=p`` soaks one plan per seed with recovery on.

This is the paper's workflow-length argument restated as a resilience
experiment: naive Hive's 9-13 cycle plans expose more tasks and more
materialized bytes to each failure than RAPIDAnalytics' 3-4 cycle plans,
so the same plan costs them more extra seconds (``mean_extra_cost_seconds``)
and, under recovery, more lost work per failure
(``lost_seconds_per_failure``).  The contract checked end to end: **every
completed run keeps the fault-free rows and base counters**, and with
recovery on every run completes.

The report (schema ``repro-chaos-soak/v2``) is fully deterministic:
seeded fault plans, simulated costs, no wall-clock.  A committed report
doubles as a golden (:data:`KIND`, checked by
:func:`repro.report.check_golden`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.ambient import Field, parse_spec
from repro.bench.arms import experiment_runs
from repro.bench.harness import QueryMeasurement
from repro.errors import CheckpointError, ReproError
from repro.mapreduce.checkpoint import RECOVERY_COUNTERS, RecoveryPolicy
from repro.mapreduce.faults import FAULT_COUNTERS, FaultPlan
from repro.report import ReportKind

#: Schema tag for the fault-injection report (bump on shape changes).
CHAOS_SCHEMA = "repro-chaos-soak/v2"

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
        self._plan(1)
        self.policy()

    @classmethod
    def from_spec(cls, text: str) -> "ChaosSpec":
        """Parse ``seeds=N,rate=p[,attempts=a][,budget=b][,straggler=s][,write=w]``."""
        return parse_spec(text, "chaos", CheckpointError, _SPEC_FIELDS, cls)

    def _plan(self, seed: int) -> FaultPlan:
        return FaultPlan(
            seed=seed,
            task_failure_rate=self.rate,
            straggler_rate=self.straggler_rate,
            hdfs_write_failure_rate=self.write_failure_rate,
            max_attempts=self.attempts,
        )

    def plans(self) -> list[FaultPlan]:
        return [self._plan(seed) for seed in range(1, self.seeds + 1)]

    def policy(self) -> RecoveryPolicy:
        return RecoveryPolicy(max_resubmissions=self.budget)


def _base_counters(measurement: QueryMeasurement) -> dict[str, int]:
    # Everything the fault and checkpoint/resume layers do not own: a
    # resumed run adds the RECOVERY_COUNTERS on top of an identical base.
    return {
        name: value
        for name, value in measurement.counters.items()
        if name not in FAULT_COUNTERS and name not in RECOVERY_COUNTERS
    }


def _row(seed: int, run: QueryMeasurement, base: QueryMeasurement) -> dict[str, Any]:
    """One run under the plan of *seed*, against the fault-free *base*:
    whether it matches (rows digest and base counters) and what it cost
    on top.  An aborted run matches nothing and has no cost."""
    done = not run.failed
    return {
        "qid": run.qid,
        "engine": run.engine,
        "seed": seed,
        "rows": run.rows,
        "failed": run.failed,
        "rows_match_baseline": done and run.rows_digest == base.rows_digest,
        "base_counters_match_baseline": done and _base_counters(run) == _base_counters(base),
        "baseline_cost_seconds": repr(base.cost_seconds),
        "cost_seconds": repr(run.cost_seconds) if done else None,
        "extra_cost_seconds": round(run.cost_seconds - base.cost_seconds, 6) if done else None,
        "cycles": run.cycles,
        "fault_counters": {
            name: value for name, value in run.counters.items() if name in FAULT_COUNTERS
        },
        "recovery": run.recovery,
    }


def _mean(values: list[float]) -> float | None:
    return round(sum(values) / len(values), 6) if values else None


def _summary(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One engine's rows, rolled up: both headlines, and the recovery
    accounting behind the second."""
    done = [run for run in runs if not run["failed"]]
    # RecoveryStats fields, summed (empty without a recovery policy).
    totals: dict[str, float] = defaultdict(float)
    for run in done:
        for name, value in run["recovery"].items():
            totals[name] += float(value)
    failures = int(totals["resubmissions"])
    lost = totals["wasted_seconds"] + totals["overhead_seconds"]
    return {
        "runs": len(runs),
        "completed": len(done),
        # The --faults headline: recovery overhead in simulated seconds.
        # A short workflow exposes fewer tasks and fewer materialized
        # bytes, so the same plan costs it fewer extra seconds.
        "mean_extra_cost_seconds": _mean([run["extra_cost_seconds"] for run in done]),
        "failures": failures,
        "jobs_skipped": int(totals["jobs_skipped"]),
        "salvaged_seconds": round(totals["salvaged_seconds"], 6),
        "wasted_seconds": round(totals["wasted_seconds"], 6),
        "overhead_seconds": round(totals["overhead_seconds"], 6),
        # The --chaos headline: how much simulated work one failure costs
        # this engine (the aborted attempt's waste plus the
        # resubmission's checkpoint-validation overhead).  Long workflows
        # run bigger jobs and carry bigger ledgers, so hive-naive loses
        # more here than rapid-analytics.
        "lost_seconds_per_failure": round(lost / failures, 6) if failures else None,
    }


def chaos_soak_report(
    experiment: str,
    plans: Sequence[FaultPlan],
    recovery: RecoveryPolicy | None = None,
    graph=None,
) -> dict[str, Any]:
    """Run *experiment* fault-free, then once under each of *plans*
    (distinct seeds), with *recovery* when given.

    Every run is compared against the fault-free baseline: its rows
    (order-sensitive digest) and base counters must match exactly; its
    cost (an exact ``repr``, null when it aborted), cycles, fault
    counters and salvage accounting are recorded.
    """
    seeds = [plan.seed for plan in plans]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ReproError(f"fault plans need distinct seeds, got {seeds}")
    variants = {
        f"seed{plan.seed}": {"fault_plan": plan, "recovery": recovery} for plan in plans
    }
    exp, outcomes = experiment_runs(experiment, "chaos experiment", variants, graph)
    runs = [
        _row(seed, outcomes[f"seed{seed}", qid, engine], outcomes["baseline", qid, engine])
        for seed in seeds
        for qid in exp.queries
        for engine in exp.engines
    ]
    return {
        "schema": CHAOS_SCHEMA,
        "experiment": experiment,
        "dataset": exp.dataset,
        "preset": exp.preset,
        "engines": list(exp.engines),
        "queries": list(exp.queries),
        "fault_plans": [asdict(plan) for plan in plans],
        "recovery": None if recovery is None else asdict(recovery),
        "runs": runs,
        "summary": {
            engine: _summary([run for run in runs if run["engine"] == engine])
            for engine in exp.engines
        },
    }


def _seconds(value: float | str | None, signed: bool = False) -> str:
    """A column of simulated seconds; ``-`` where there is no value."""
    if value is None:
        return f"{'-':>10s}"
    return f"{float(value):+9.1f}s" if signed else f"{float(value):9.1f}s"


def render_chaos_report(report: dict[str, Any]) -> str:
    """Terminal view: one line per run, one per engine, then the verdicts.
    The header shows the first plan's rates: the CLI's plans differ only
    in seed."""
    plans, recovery = report["fault_plans"], report["recovery"]
    plan = plans[0]
    lines = [
        f"{report['experiment']} chaos soak "
        f"(seeds={','.join(str(p['seed']) for p in plans)}, "
        f"rate={plan['task_failure_rate']}, straggler={plan['straggler_rate']}, "
        f"write={plan['hdfs_write_failure_rate']}, attempts={plan['max_attempts']}, "
        + (f"budget={recovery['max_resubmissions']})" if recovery else "no recovery)"),
        f"{'seed':>4s} {'query':6s} {'engine':18s} {'baseline':>10s} {'cost':>10s} "
        f"{'extra':>10s} {'retries':>7s} {'resubs':>6s}",
    ]
    for run in report["runs"]:
        head = f"{run['seed']:4d} {run['qid']:6s} {run['engine']:18s}"
        if run["failed"]:
            lines.append(f"{head} {'ABORTED':>10s} {run['failed']}")
            continue
        lines.append(
            f"{head} {_seconds(run['baseline_cost_seconds'])} "
            f"{_seconds(run['cost_seconds'])} "
            f"{_seconds(run['extra_cost_seconds'], signed=True)} "
            f"{run['fault_counters'].get('retried_tasks', 0):7d} "
            f"{run['recovery'].get('resubmissions', 0):6d}"
        )
    lines.append(
        f"{'engine':18s} {'runs':>5s} {'done':>5s} {'mean extra':>10s} {'fails':>6s} "
        f"{'skips':>6s} {'salvaged':>10s} {'wasted':>10s} {'overhead':>10s} "
        f"{'lost/fail':>10s}"
    )
    summary = report["summary"]
    for engine in report["engines"]:
        stats = summary[engine]
        lines.append(
            f"{engine:18s} {stats['runs']:5d} {stats['completed']:5d} "
            f"{_seconds(stats['mean_extra_cost_seconds'], signed=True)} "
            f"{stats['failures']:6d} {stats['jobs_skipped']:6d} "
            f"{_seconds(stats['salvaged_seconds'])} {_seconds(stats['wasted_seconds'])} "
            f"{_seconds(stats['overhead_seconds'])} "
            f"{_seconds(stats['lost_seconds_per_failure'])}"
        )
    done = [run for run in report["runs"] if not run["failed"]]
    identical = [
        run for run in done
        if run["rows_match_baseline"] and run["base_counters_match_baseline"]
    ]
    lines.append(
        f"completed: {len(done)} of {len(report['runs'])} runs; rows+counters "
        f"bit-identical to fault-free: {len(identical)} of {len(done)} completed"
    )
    naive, rapid = (
        summary.get(engine, {}).get("lost_seconds_per_failure")
        for engine in ("hive-naive", "rapid-analytics")
    )
    if naive is not None and rapid is not None:
        lines.append(
            "hive-naive loses more work per failure than rapid-analytics: "
            f"{naive > rapid}"
        )
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    """A completed run that drifted from the fault-free run is always a
    violation; an aborted run is one only when recovery was on (without
    it, an abort is an outcome the report records)."""
    drifted, aborted = [], []
    for run in report["runs"]:
        label = f"seed{run['seed']}:{run['qid']}/{run['engine']}"
        if run["failed"]:
            aborted.append(label)
        elif not (run["rows_match_baseline"] and run["base_counters_match_baseline"]):
            drifted.append(label)
    problems = [f"runs drifted from the fault-free run: {drifted}"] if drifted else []
    if aborted and report["recovery"] is not None:
        problems.append(f"runs aborted despite recovery: {aborted}")
    return problems


#: A diff against a committed report catches any fault, recovery or
#: checkpoint/resume change that moves a counter, a cost or a salvage number.
KIND = ReportKind(
    schema=CHAOS_SCHEMA,
    label="chaos golden",
    head=(
        "schema", "experiment", "dataset", "preset", "engines", "queries",
        "fault_plans", "recovery",
    ),
    key=("seed", "qid", "engine"),
    tail=("summary",),
    rerun=lambda golden: chaos_soak_report(
        golden["experiment"],
        [FaultPlan(**plan) for plan in golden["fault_plans"]],
        None if golden["recovery"] is None else RecoveryPolicy(**golden["recovery"]),
    ),
    render=render_chaos_report,
    violations=_violations,
)
