"""Declared metrics: what ``BENCHMARK.json`` lists, annotated.

``BENCHMARK.json`` is the single source for names, units, direction and
regression bounds -- the gate reads that file, so the ledger does too.
This module adds what the file's fixed keys cannot hold: each per-layer
metric's layer (a module of ``src/repro``), the end-to-end metric it is
expected to move and on which workload (written down before measuring),
and whether it is *exact* (a simulated counter that must repeat bit for
bit) or a calibrated wall measurement.

A per-layer metric in ``BENCHMARK.json`` is emitted by every traced run,
on that workload's own inputs.  ``OWNER_EXTRAS`` are metrics only one
workload can produce; they are printed and written to the ledger JSON
but are not part of the gate's list.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Any

SCHEMA = "repro-perf-ledger/v1"
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


@dataclass(frozen=True)
class Note:
    layer: str
    moves: str
    exact: bool = False


#: The three role metrics name the same kind of path on every workload;
#: the ISSUE's per-workload names are these pairs.
ROLE_ALIASES = {
    ("bsbm-scale", "ntga_s"): "ntga_pass_s",
    ("bsbm-scale", "control_s"): "hive_pass_s",
    ("bsbm-scale", "variant_s"): "sharded_pass_s",
    ("cold-cli", "pass_s"): "cli_cycle_s",
    ("catalog-sweep", "pass_s"): "sweep_pass_s",
    ("serve-mix", "ntga_s"): "serve_stream_s",
    ("serve-mix", "variant_s"): "serve_resilient_stream_s",
}

PER_LAYER_NOTES: dict[str, Note] = {
    "host.cal_s": Note("host", "context only"),
    "host.nproc": Note("host", "context only", exact=True),
    "ledger.trace_overhead_x": Note("ledger", "none: end-to-end runs have tracing off"),
    "ledger.self_time_coverage": Note("ledger", "none: share of op wall the spans explain"),
    "ledger.trace_spans": Note("ledger", "none", exact=True),
    "cli.bare_python_s": Note("cli", "pass_s@cold-cli (floor of every command)"),
    "cli.import_s": Note("cli", "pass_s@cold-cli (~55% of a cycle); nothing else"),
    "sparql.parse_s": Note("sparql", "pass_s@catalog-sweep (<3%); not bsbm-scale"),
    "sparql.parse_queries_per_s": Note("sparql", "pass_s@catalog-sweep"),
    "core.decompose_s": Note("core", "pass_s@catalog-sweep (<3%)"),
    "core.reference_s": Note("core", "control_s@catalog-sweep (~14% of a pass)"),
    "ntga.compose_s": Note("ntga", "ntga_s@catalog-sweep only"),
    "ntga.plan_s": Note("ntga", "ntga_s@catalog-sweep only"),
    "ntga.layout_cold_s": Note("ntga", "setup_s everywhere; pass_s@cold-cli"),
    "ntga.layout_warm_s": Note("ntga", "ntga_s@catalog-sweep (paid per query)"),
    "ntga.deliver_s": Note("ntga", "ntga_s@bsbm-scale"),
    "ntga.flat_pass_x": Note(
        "ntga", "ntga_s@bsbm-scale: <1 today; a factorization fix raises it, control_s flat"
    ),
    "ntga.shuffle_reduction": Note("ntga", "sim.cost_s only", exact=True),
    "plan.enumerate_s": Note("plan", "ntga_s@catalog-sweep (bounded by its ~10% share)"),
    "plan.candidates": Note("plan", "plan.enumerate_s", exact=True),
    "rdf.stats_profile_s": Note("rdf", "setup_s; cli explain"),
    "rdf.ntriples_parse_triples_per_s": Note("rdf", "pass_s@cold-cli via run-ntriples"),
    "datasets.generate_s": Note("datasets", "setup_s in-process; pass_s@cold-cli"),
    "datasets.generate_triples_per_s": Note("datasets", "setup_s; pass_s@cold-cli"),
    "hive.layout_cold_s": Note("hive", "setup_s; control_s@cold-cli"),
    "hive.layout_warm_s": Note("hive", "control_s@catalog-sweep"),
    "mapreduce.workflow_s": Note(
        "mapreduce", "ntga_s ~1:1 and control_s on bsbm-scale; ~0.7:1 on catalog-sweep"
    ),
    "mapreduce.job_s.alpha-join": Note("mapreduce", "ntga_s@bsbm-scale"),
    "mapreduce.job_s.agg-join": Note("mapreduce", "ntga_s@bsbm-scale"),
    "mapreduce.job_s.final-join": Note("mapreduce", "ntga_s@bsbm-scale"),
    "mapreduce.records_per_s": Note("mapreduce", "ntga_s, control_s@bsbm-scale"),
    "mapreduce.per_job_overhead_s": Note(
        "mapreduce", "pass_s@catalog-sweep and variant_s@bsbm-scale, not ntga_s@bsbm-scale"
    ),
    "mapreduce.size_accounting_cold_records_per_s": Note("mapreduce", "setup_s"),
    "mapreduce.size_accounting_warm_records_per_s": Note("mapreduce", "ntga_s@bsbm-scale"),
    "shard.partition_cold_s.hash": Note("shard", "setup_s; variant_s@cold-cli"),
    "shard.partition_cold_s.min-edge-cut": Note("shard", "setup_s"),
    "shard.driver_overhead_x": Note(
        "shard", "variant_s; unsharded as the N=1 case must leave ntga_s unmoved"
    ),
    "shard.cut_fraction": Note("shard", "sim.exchange_bytes", exact=True),
    "serve.hit_request_s": Note("serve", "ntga_s@serve-mix via the cache-hit path"),
    "serve.fingerprint_s": Note("serve", "ntga_s@serve-mix"),
    "obs.trace_on_x": Note("obs", "none: telemetry is off end to end (budget 1.10)"),
    "obs.metrics_on_x": Note("obs", "none: telemetry is off end to end (budget 1.10)"),
    "obs.trace_spans": Note("obs", "obs.trace_on_x", exact=True),
    "sim.cost_s": Note("mapreduce", "the paper's result; nothing on the wall side", exact=True),
    "sim.cycles": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.map_only_cycles": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.input_records": Note("mapreduce", "sim.cost_s; the work a pass does", exact=True),
    "sim.answer_rows": Note("core", "none: rows returned per pass", exact=True),
    "sim.shuffle_bytes": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.materialized_bytes": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.hdfs_bytes_read": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.exchange_bytes": Note("shard", "sim.cost_s", exact=True),
    "sim.phase_cost_s.map": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.phase_cost_s.shuffle": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.phase_cost_s.reduce": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.phase_cost_s.materialize": Note("mapreduce", "sim.cost_s", exact=True),
    "sim.phase_cost_s.exchange": Note("shard", "sim.cost_s", exact=True),
    "sim.phase_cost_s.overlap_credit": Note(
        "shard", "sim.cost_s: cost of all but the slowest shard, credited back", exact=True
    ),
    "sim.phase_cost_s.unattributed": Note(
        "mapreduce",
        "sim.cost_s: cost JobStats cannot re-derive (raw bytes of compressed Hive "
        "tables, units run inside serve, fault recovery)",
        exact=True,
    ),
    "error_rate": Note("ledger", "ops failed / ops attempted; 0 on every workload", exact=True),
}

#: Metrics only their owner workload produces (traced run).
OWNER_EXTRAS: dict[str, dict[str, tuple[str, Note]]] = {
    "cold-cli": {
        f"cli.cmd_s.{command}": ("s", Note("cli", "pass_s@cold-cli"))
        for command in (
            "catalog", "explain", "run-ntga", "run-hive", "run-sharded", "run-ntriples",
        )  # fmt: skip
    },
    "bsbm-scale": {
        **{
            f"sim.cost_s.{part}": ("sim_s", Note("mapreduce", "sim.cost_s", exact=True))
            for part in ("ntga", "hive", "sharded")
        },
        **{
            f"growth.{name}": ("exponent", Note("growth", "names where bsbm-scale wall goes next"))
            for name in (
                "datasets.generate", "ntga.layout", "hive.layout", "rdf.stats",
                "shard.partition", "ntga.pass", "hive.pass", "sharded.pass", "peak_rss",
            )  # fmt: skip
        },
    },
    "catalog-sweep": {},
    "serve-mix": {
        "serve.overhead_s": ("s", Note("serve", "ntga_s@serve-mix")),
        **{
            name: (unit, Note("serve", moves, exact=True))
            for name, unit, moves in (
                ("serve.result_cache_hit_ratio", "ratio", "sim.cost_s, serve.sim_p95_s"),
                ("serve.plan_cache_hit_ratio", "ratio", "sim.cost_s"),
                ("serve.result_cache_hits", "count", "sim.cost_s"),
                ("serve.result_cache_evictions", "count", "sim.cost_s"),
                ("serve.batch_merges", "count", "sim.cost_s, serve.sim_p95_s"),
                ("serve.merged_request_ratio", "ratio", "sim.cost_s"),
                ("serve.dedup_requests", "count", "sim.cost_s"),
                ("serve.units_executed.a", "count", "sim.cost_s, ntga_s@serve-mix"),
                ("serve.units_executed.b", "count", "variant_s@serve-mix"),
                ("serve.retries", "count", "variant_s@serve-mix only"),
                ("serve.retry_success_ratio", "ratio", "variant_s@serve-mix only"),
                ("serve.sim_cost_s.a", "sim_s", "sim.cost_s"),
                ("serve.sim_cost_s.b", "sim_s", "sim.cost_s"),
                ("serve.sim_p50_s", "sim_s", "the served user's latency"),
                ("serve.sim_p95_s", "sim_s", "the served user's latency (phase A)"),
                ("serve.sim_p95_s.b", "sim_s", "the served user's latency (phase B)"),
                ("serve.sim_p95_s.r050", "sim_s", "latency at 0.5x the frozen rate"),
                ("serve.sim_p95_s.r100", "sim_s", "latency at the frozen rate"),
                ("serve.sim_p95_s.r200", "sim_s", "latency at 2x the frozen rate"),
                ("serve.sim_latency_first_s", "sim_s", "backlog check: first 100 requests"),
                ("serve.sim_latency_last_s", "sim_s", "backlog check: last 100 requests"),
            )
        },
    },
}


#: Seconds that are reported as measured, not calibrated.
RAW_SECONDS = frozenset({"host.cal_s"})


def load_benchmark() -> dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_specs() -> dict[str, dict[str, Any]]:
    return {spec["name"]: spec for spec in load_benchmark()["end_to_end"]}


def per_layer_specs() -> dict[str, dict[str, Any]]:
    return {spec["name"]: spec for spec in load_benchmark()["per_layer"]}


def is_exact(workload: str, name: str) -> bool:
    note = PER_LAYER_NOTES.get(name)
    if note is None:
        extra = OWNER_EXTRAS.get(workload, {}).get(name)
        note = extra[1] if extra is not None else None
    return note is not None and note.exact


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def summarize(values: list[float], unit: str, raw: list[float] | None = None) -> dict[str, Any]:
    """Median with IQR, max and n; p95 only where at least ten samples
    lie beyond it."""
    entry: dict[str, Any] = {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "max": max(values),
    }
    if len(values) >= 2:
        quartiles = statistics.quantiles(values, n=4)
        entry["iqr"] = quartiles[2] - quartiles[0]
    if len(values) >= 200:
        entry["p95"] = sorted(values)[int(0.95 * len(values))]
    if raw is not None:
        entry["raw"] = statistics.median(raw)
        entry["raw_samples"] = raw
    entry["samples"] = values
    return entry


def single(value: float | None, unit: str, reason: str = "") -> dict[str, Any]:
    """One measured (or exact) number; ``None`` carries its reason."""
    entry: dict[str, Any] = {"value": value, "unit": unit}
    if value is None:
        entry["reason"] = reason or "not measured"
    return entry


def is_finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
