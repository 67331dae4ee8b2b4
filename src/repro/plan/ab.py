"""Planner A/B: rule vs cost mode on the multi-grouping workload.

For each query RAPIDAnalytics runs under two arms of the A/B loop
(:mod:`repro.bench.arms`) — the rule-based planner (the composite
rewrite always fires when it can) and the cost-based planner — and the
row records both the *priced* costs the enumerator compared and the
*actual* simulated workflow costs the runs produced, plus an
order-insensitive digest of each answer set.

The report (``repro-planner-ab/v1``) is what
``benchmarks/golden/planner-ab-mg.json`` pins: the cost planner must never
pick a plan whose actual run cost exceeds the rule-based plan's, and
the answers must be identical (as multisets — join-order variants may
emit rows in a different order).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bench.arms import DEFAULT_QUERIES, catalog_runs
from repro.core.results import EngineConfig
from repro.report import ReportKind, answers_digest

AB_SCHEMA = "repro-planner-ab/v1"

#: Actual-cost slack: both runs price the same deterministic simulation,
#: so anything beyond float noise is a genuine regression.
_COST_TOLERANCE = 1e-6

_ARMS = {"rule": EngineConfig(planner="rule"), "cost": EngineConfig(planner="cost")}


def planner_ab_report(qids: Iterable[str] = DEFAULT_QUERIES) -> dict[str, Any]:
    """Run the rule-vs-cost A/B over *qids* and report per-query verdicts."""
    qids = list(qids)
    runs: list[dict[str, Any]] = []
    for run in catalog_runs(qids, _ARMS):
        rule, cost = run.reports["rule"], run.reports["cost"]
        choice = cost.plan_choice
        rule_digest = answers_digest(rule.rows)
        runs.append(
            {
                **run.head,
                "chosen": choice.chosen,
                "source": choice.source,
                # ``candidates[0]`` is the rule-order candidate by the
                # enumerator's contract: no second enumeration needed.
                "priced_cost": {
                    "rule": round(choice.candidates[0].total_cost, 6),
                    "cost": round(choice.chosen_cost, 6),
                },
                "actual_cost": {
                    "rule": round(rule.cost_seconds, 6),
                    "cost": round(cost.cost_seconds, 6),
                },
                "cycles": {"rule": rule.cycles, "cost": cost.cycles},
                "rows": len(rule.rows),
                "rows_digest": rule_digest,
                "answers_match": rule_digest == answers_digest(cost.rows),
                "cost_not_worse": cost.cost_seconds
                <= rule.cost_seconds + _COST_TOLERANCE,
            }
        )
    summary = {
        "total_priced_rule": round(sum(r["priced_cost"]["rule"] for r in runs), 6),
        "total_priced_cost": round(sum(r["priced_cost"]["cost"] for r in runs), 6),
        "total_actual_rule": round(sum(r["actual_cost"]["rule"] for r in runs), 6),
        "total_actual_cost": round(sum(r["actual_cost"]["cost"] for r in runs), 6),
    }
    verdicts = {
        "answers_all_match": all(r["answers_match"] for r in runs),
        "cost_never_worse": all(r["cost_not_worse"] for r in runs),
        "priced_cost_leq_rule": summary["total_priced_cost"]
        <= summary["total_priced_rule"] + _COST_TOLERANCE,
    }
    return {
        "schema": AB_SCHEMA,
        "queries": qids,
        "runs": runs,
        "summary": summary,
        "verdicts": verdicts,
    }


def render_ab_report(report: dict[str, Any]) -> str:
    """Terminal view: one line per query, priced and actual."""
    lines = [
        "planner A/B (rule vs cost), rapid-analytics:",
        f"{'qid':5s} {'chosen':22s} {'priced rule':>12s} {'priced cost':>12s} "
        f"{'actual rule':>12s} {'actual cost':>12s} {'match':>6s}",
    ]
    for run in report["runs"]:
        lines.append(
            f"{run['qid']:5s} {run['chosen']:22s} "
            f"{run['priced_cost']['rule']:11.3f}s {run['priced_cost']['cost']:11.3f}s "
            f"{run['actual_cost']['rule']:11.3f}s {run['actual_cost']['cost']:11.3f}s "
            f"{'yes' if run['answers_match'] else 'NO':>6s}"
        )
    summary = report["summary"]
    verdicts = report["verdicts"]
    lines.append(
        f"total: priced {summary['total_priced_rule']:.3f}s → "
        f"{summary['total_priced_cost']:.3f}s, actual "
        f"{summary['total_actual_rule']:.3f}s → {summary['total_actual_cost']:.3f}s"
    )
    lines.append(
        f"answers identical: {verdicts['answers_all_match']}; "
        f"cost plan never worse: {verdicts['cost_never_worse']}"
    )
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    bad = [
        run["qid"]
        for run in report["runs"]
        if not run["answers_match"] or not run["cost_not_worse"]
    ]
    return [f"cost planner lost or drifted: {bad}"] if bad else []


#: A diff against a committed report catches any estimator or enumerator
#: change that moves a plan choice, a priced cost, or an answer digest.
KIND = ReportKind(
    schema=AB_SCHEMA,
    label="planner A/B golden",
    head=("schema", "queries"),
    key=("qid",),
    tail=("summary", "verdicts"),
    rerun=lambda golden: planner_ab_report(golden["queries"]),
    render=render_ab_report,
    violations=_violations,
)
