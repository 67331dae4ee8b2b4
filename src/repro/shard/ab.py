"""Shard A/B: partitioning strategies head to head.

For each query RAPIDAnalytics runs under the arms of the A/B loop
(:mod:`repro.bench.arms`) — once unsharded (the answer oracle and the
cost baseline) and once per partitioning strategy at N shards — and
the row records each strategy's cross-shard exchange volume, its
edge-cut statistics, and the priced workflow cost.

The report (``repro-shard-ab/v1``) is what
``benchmarks/golden/shard-ab-mg-4.json`` pins: every sharded run must
reproduce the unsharded answers bit-for-bit, and the min-edge-cut
partitioner must move strictly fewer cross-shard bytes than hash
partitioning on at least two MG-class queries.  Locality's standing is
*reported*, not enforced — on BSBM-shaped data its contiguous ranges
keep same-type subjects together while the MG joins cross types
(offer→product, offer→vendor), so it can trail hash; the per-query
ordering rows make that visible instead of hiding it.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.bench.arms import DEFAULT_QUERIES, catalog_runs
from repro.core.results import EngineConfig
from repro.report import ReportKind, rows_digest
from repro.shard.partition import PARTITIONERS, build_partition

SHARD_AB_SCHEMA = "repro-shard-ab/v1"


def shard_ab_report(
    qids: Iterable[str] = DEFAULT_QUERIES,
    shards: int = 4,
    strategies: tuple[str, ...] = PARTITIONERS,
) -> dict[str, Any]:
    """Run the partitioner A/B over *qids* at *shards* workers."""
    qids = list(qids)
    # Built before anything runs: a config validates itself.
    arms = {"unsharded": EngineConfig()}
    arms.update(
        (strategy, EngineConfig(shards=shards, partitioner=strategy))
        for strategy in strategies
    )
    runs: list[dict[str, Any]] = []
    for run in catalog_runs(qids, arms):
        base = run.reports["unsharded"]
        base_digest = rows_digest(base.rows)
        by_strategy: dict[str, Any] = {}
        for strategy in strategies:
            partition = build_partition(run.graph, strategy, shards)
            report = run.reports[strategy]
            by_strategy[strategy] = {
                "exchange_bytes": report.stats.total_exchange_bytes,
                "cut_edges": partition.cut_edges,
                "total_edges": partition.total_edges,
                "actual_cost": round(report.cost_seconds, 6),
                "cycles": report.cycles,
                "rows_match": rows_digest(report.rows) == base_digest,
            }
        ranked = sorted(
            by_strategy, key=lambda s: (by_strategy[s]["exchange_bytes"], s)
        )
        runs.append(
            {
                **run.head,
                "rows": len(base.rows),
                "rows_digest": base_digest,
                "unsharded_cost": round(base.cost_seconds, 6),
                "strategies": by_strategy,
                "exchange_ranking": ranked,
            }
        )
    summary = {
        "shards": shards,
        "per_strategy_exchange_bytes": {
            strategy: sum(r["strategies"][strategy]["exchange_bytes"] for r in runs)
            for strategy in strategies
        },
    }
    comparable = "hash" in strategies and "min-edge-cut" in strategies
    min_cut_wins = [
        r["qid"]
        for r in runs
        if comparable
        and r["strategies"]["min-edge-cut"]["exchange_bytes"]
        < r["strategies"]["hash"]["exchange_bytes"]
    ]
    verdicts = {
        "answers_all_match": all(
            s["rows_match"] for r in runs for s in r["strategies"].values()
        ),
        "min_cut_beats_hash_queries": min_cut_wins,
        "min_cut_beats_hash_on_two": len(min_cut_wins) >= 2,
    }
    return {
        "schema": SHARD_AB_SCHEMA,
        "queries": qids,
        "shards": shards,
        "strategies": list(strategies),
        "runs": runs,
        "summary": summary,
        "verdicts": verdicts,
    }


def render_shard_report(report: dict[str, Any]) -> str:
    """Terminal view: one line per (query, strategy)."""
    lines = [
        f"shard A/B ({report['shards']} shards), rapid-analytics:",
        f"{'qid':5s} {'strategy':13s} {'exchange':>10s} {'cut':>9s} "
        f"{'cost':>9s} {'base':>9s} {'match':>6s}",
    ]
    for run in report["runs"]:
        for strategy, result in run["strategies"].items():
            lines.append(
                f"{run['qid']:5s} {strategy:13s} "
                f"{result['exchange_bytes']:9d}B "
                f"{result['cut_edges']:4d}/{result['total_edges']:<4d} "
                f"{result['actual_cost']:8.2f}s {run['unsharded_cost']:8.2f}s "
                f"{'yes' if result['rows_match'] else 'NO':>6s}"
            )
    verdicts = report["verdicts"]
    totals = report["summary"]["per_strategy_exchange_bytes"]
    lines.append(
        "total exchange: "
        + " ".join(f"{s}={totals[s]}B" for s in report["strategies"])
    )
    lines.append(
        f"answers identical: {verdicts['answers_all_match']}; "
        f"min-edge-cut beats hash on: "
        f"{', '.join(verdicts['min_cut_beats_hash_queries']) or 'none'}"
    )
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    bad = [
        f"{run['qid']}/{strategy}"
        for run in report["runs"]
        for strategy, result in run["strategies"].items()
        if not result["rows_match"]
    ]
    return [f"sharded answers diverged: {bad}"] if bad else []


#: A diff against a committed report catches any partitioner,
#: exchange-accounting, or cost-model change that moves a byte count, an
#: answer digest, or a verdict.
KIND = ReportKind(
    schema=SHARD_AB_SCHEMA,
    label="shard A/B golden",
    head=("schema", "queries", "shards", "strategies"),
    key=("qid",),
    tail=("summary", "verdicts"),
    rerun=lambda golden: shard_ab_report(
        golden["queries"], golden["shards"], tuple(golden["strategies"])
    ),
    render=render_shard_report,
    violations=_violations,
)
