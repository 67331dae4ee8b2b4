"""Seeded serving workloads: ``repro serve --workload seeds=N,clients=C,mix=...``.

Drives :class:`~repro.serve.service.QueryService` with a deterministic
arrival process over the bench catalog and emits a
``repro-serve-workload/v2`` report: latency percentiles, cache hit
rates, batch-merge counters, an SLO verdict
(:mod:`repro.serve.slo`), and the headline batched-vs-unbatched
cost comparison — the total simulated cost the service actually spent
versus what serving every completed request cold and solo would have
cost.  Every answer is checked bit-identical (rows *and* order) against
a cold solo execution of the same query, so the report doubles as a
correctness oracle for the sharing layers.
:func:`serve_workload_with_metrics` additionally collects a
``repro-metrics/v1`` snapshot (see :mod:`repro.obs.metrics`) over the
same run.

Interarrival gaps are uniform in ``[0.5, 1.5) / rate`` — drawn from
``random.Random(seed)`` without transcendental functions, so committed
golden reports stay byte-identical across platforms and libm versions.

Mixes are named slices of the catalog:

* ``chem-overlap`` — MG6/MG7/MG8/G8, four chem queries over the same
  assay star (mutually overlapping): exercises MQO merge + n-split;
* ``bsbm-star`` — the BSBM table-3 queries, which do *not* cross-merge:
  exercises dedup and the result cache only;
* ``pubmed-mesh`` — MG11/MG13/MG14 (MG13+MG14 overlap, MG11 solo).
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, NamedTuple

from repro.bench.catalog import get_query
from repro.bench.harness import bsbm_config, chem_config, pubmed_config
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig, rows_digest
from repro.datasets import generate
from repro.ambient import PLANNER, REPRESENTATION, Field, knob_overrides, parse_spec
from repro.errors import ServeError
from repro.mapreduce.cost import fold_seconds
from repro.obs import metrics as obs_metrics
from repro.obs.calibration import CalibrationMonitor
from repro.rdf.graph import Graph
from repro.report import ReportKind
from repro.serve.service import (
    DEADLINE,
    OK,
    QueryService,
    ServeRequest,
    ServeResponse,
    ServiceConfig,
)
from repro.serve.slo import DEFAULT_SLOS, SLOSpec, _percentile, evaluate_slo

#: Schema tag for the serve workload report.  v2 added the SLO section
#: (``slo`` + ``verdicts.slo_pass``), per-seed p95 latencies, cache hit
#: ratios in the counters, and the ``planner`` workload knob.
SERVE_SCHEMA = "repro-serve-workload/v2"

#: mix name -> (dataset, preset, qids, engine-config factory)
WORKLOAD_MIXES: dict[
    str, tuple[str, str, tuple[str, ...], Callable[[], EngineConfig]]
] = {
    "chem-overlap": ("chem", "tiny", ("MG6", "MG7", "MG8", "G8"), chem_config),
    "bsbm-star": (
        "bsbm",
        "tiny",
        ("G1", "G2", "MG1", "MG2", "MG3", "MG4"),
        bsbm_config,
    ),
    "pubmed-mesh": ("pubmed", "tiny", ("MG11", "MG13", "MG14"), pubmed_config),
}

#: ``--workload`` keys (DESIGN.md §7.5 has the grammar).
_SPEC_FIELDS = {
    "seeds": Field(int, required=True),
    "clients": Field(int, required=True),
    "mix": Field(str, required=True),
    "requests": Field(int),
    "window": Field(float),
    "rate": Field(float),
    "engine": Field(str),
    "batch": Field(bool, "batching"),
    "cache": Field(bool, "caching"),
    "deadline": Field(float),
    "max_pending": Field(int),
    "representation": Field(REPRESENTATION.validate),
    "planner": Field(PLANNER.validate),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Parsed ``--workload`` spec.  ``seeds`` runs the same mix through
    1..N independent arrival seeds against fresh services."""

    seeds: int
    clients: int
    mix: str
    requests: int = 24
    window: float = 0.25
    rate: float = 8.0
    engine: str = "rapid-analytics"
    batching: bool = True
    caching: bool = True
    deadline: float | None = None
    max_pending: int = 64
    representation: str | None = None
    #: Planner mode override (rule/cost/auto); None keeps the mix's
    #: engine-config default.
    planner: str | None = None

    def __post_init__(self) -> None:
        for name in ("seeds", "clients", "requests"):
            if getattr(self, name) < 1:
                raise ServeError(f"{name} must be >= 1")
        if self.mix not in WORKLOAD_MIXES:
            known = ", ".join(sorted(WORKLOAD_MIXES))
            raise ServeError(f"unknown mix {self.mix!r} (known: {known})")
        if not 0.0 < self.window < math.inf:
            raise ServeError("window must be > 0 and finite")
        if not self.rate > 0.0:
            raise ServeError("rate must be > 0")

    @classmethod
    def from_spec(cls, text: str) -> "WorkloadSpec":
        """Parse ``seeds=N,clients=C,mix=name[,requests=R][,window=W]
        [,rate=r][,engine=e][,batch=on|off][,cache=on|off]
        [,deadline=d][,max_pending=m][,representation=r][,planner=p]``."""
        return parse_spec(text, "workload", ServeError, _SPEC_FIELDS, cls)

    def service_config(self, engine_config: EngineConfig) -> ServiceConfig:
        return ServiceConfig(
            engine=self.engine,
            engine_config=engine_config,
            workers=self.clients,
            max_pending=self.max_pending,
            batch_window=self.window,
            enable_batching=self.batching,
            enable_result_cache=self.caching,
            deadline=self.deadline,
        )

    def engine_config(self) -> EngineConfig:
        """The mix's engine config under this spec's knob overrides.  The
        solo baselines and the service both run under it, so a mismatch
        can only come from the sharing layers, never from the
        representation or a re-litigated plan choice."""
        return replace(WORKLOAD_MIXES[self.mix][3](), **knob_overrides(self))


def workload_requests(spec: WorkloadSpec, seed: int) -> list[ServeRequest]:
    """The deterministic arrival sequence for one seed: uniform query
    choice over the mix, uniform interarrival gaps with mean 1/rate."""
    _, _, qids, _ = WORKLOAD_MIXES[spec.mix]
    rng = random.Random(seed)
    clock = 0.0
    requests: list[ServeRequest] = []
    for _ in range(spec.requests):
        qid = qids[rng.randrange(len(qids))]
        clock += (0.5 + rng.random()) / spec.rate
        requests.append(
            ServeRequest(
                text=get_query(qid).sparql,
                arrival=round(clock, 6),
                label=qid,
            )
        )
    return requests


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    total = fold_seconds(ordered)
    return {
        "count": len(ordered),
        "mean": round(total / len(ordered), 6) if ordered else 0.0,
        "p50": round(_percentile(ordered, 50), 6),
        "p90": round(_percentile(ordered, 90), 6),
        "p95": round(_percentile(ordered, 95), 6),
        "p99": round(_percentile(ordered, 99), 6),
        "max": round(ordered[-1], 6) if ordered else 0.0,
    }


class _SeedTally(NamedTuple):
    """One seed's responses, folded the way both serve reports read them."""

    statuses: dict[str, int]
    sources: dict[str, int]
    #: Latencies, and summed cold solo cost, of the *answered* statuses.
    latencies: list[float]
    baseline_cost: float
    #: Per status, the ids of responses whose rows differ from the solo
    #: baseline's (order-sensitive digest).
    mismatches: dict[str, list[int]]


def _tally_seed(
    responses: list[ServeResponse],
    baseline: dict[str, dict[str, Any]],
    answered: tuple[str, ...],
) -> _SeedTally:
    statuses: dict[str, int] = {}
    sources: dict[str, int] = {}
    latencies: list[float] = []
    baseline_cost = 0.0
    mismatches: dict[str, list[int]] = {}
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
        if response.source is not None:
            sources[response.source] = sources.get(response.source, 0) + 1
        if response.status in answered:
            baseline_cost += baseline[response.label]["cost_seconds"]
            latencies.append(response.latency)
        if response.rows is not None and (
            rows_digest(response.rows) != baseline[response.label]["digest"]
        ):
            mismatches.setdefault(response.status, []).append(response.request_id)
    return _SeedTally(
        dict(sorted(statuses.items())),
        dict(sorted(sources.items())),
        latencies,
        baseline_cost,
        mismatches,
    )


def default_slo(mix: str) -> SLOSpec:
    """The mix's default latency objectives."""
    return DEFAULT_SLOS.get(mix, DEFAULT_SLOS["default"])


def solo_baseline(
    spec: WorkloadSpec, graph: Graph, engine_config: EngineConfig
) -> dict[str, dict[str, Any]]:
    """Every query of the mix cold and solo: the cost the sharing layers
    are measured against, and the order-sensitive digest each served
    answer must reproduce."""
    baseline: dict[str, dict[str, Any]] = {}
    for qid in WORKLOAD_MIXES[spec.mix][2]:
        report = make_engine(spec.engine).execute(
            to_analytical(get_query(qid).sparql), graph, engine_config
        )
        baseline[qid] = {
            "rows": len(report.rows),
            "cost_seconds": round(report.cost_seconds, 6),
            "digest": rows_digest(report.rows),
        }
    return baseline


def serve_workload_report(
    spec: WorkloadSpec,
    graph: Graph | None = None,
    slo: SLOSpec | None = None,
    registry: obs_metrics.MetricsRegistry | None = None,
    calibration: CalibrationMonitor | None = None,
) -> dict[str, Any]:
    """Run the workload matrix and assemble the versioned report.

    The baseline against which savings are computed is the no-sharing
    server: every completed request executed cold, solo, on the same
    engine and config.  Those solo runs double as the bit-identity
    oracle — each served answer's row digest (order-sensitive) must
    equal its query's solo digest.

    The SLO verdict (*slo*, defaulting to the mix's
    :data:`~repro.serve.slo.DEFAULT_SLOS` entry) is computed per seed
    and over the pooled latencies; ``verdicts.slo_pass`` reflects the
    pooled verdict.  With a *registry*, the services run under
    :func:`repro.obs.metrics.collecting` so every serve/runner/planner
    instrument accumulates across seeds — the baseline oracle runs stay
    outside it, keeping fleet metrics about served traffic only.  A
    *calibration* monitor is handed to each service to collect
    estimate-vs-actual q-errors (it only observes under a non-rule
    ``planner``).
    """
    dataset, preset, qids, _ = WORKLOAD_MIXES[spec.mix]
    if graph is None:
        graph = generate(dataset, preset)
    engine_config = spec.engine_config()
    slo = slo or default_slo(spec.mix)

    baseline = solo_baseline(spec, graph, engine_config)

    runs: list[dict[str, Any]] = []
    total_baseline = total_served = 0.0
    per_seed_reduced: list[bool] = []
    per_seed_slo: list[dict[str, Any]] = []
    pooled_latencies: list[float] = []
    collecting = (
        obs_metrics.collecting(registry) if registry is not None else nullcontext()
    )
    with collecting:
        for seed in range(1, spec.seeds + 1):
            service = QueryService(
                graph, spec.service_config(engine_config), calibration=calibration
            )
            responses = service.serve(workload_requests(spec, seed))
            tally = _tally_seed(responses, baseline, answered=(OK, DEADLINE))
            # Without a resilience policy only ``ok`` answers carry rows.
            mismatches = tally.mismatches.get(OK, [])
            baseline_cost, latencies = tally.baseline_cost, tally.latencies
            served_cost = service.executed_cost_seconds
            total_baseline += baseline_cost
            total_served += served_cost
            per_seed_reduced.append(served_cost < baseline_cost)
            pooled_latencies.extend(latencies)
            per_seed_slo.append({"seed": seed, **evaluate_slo(slo, latencies)})
            runs.append(
                {
                    "seed": seed,
                    "requests": len(responses),
                    "statuses": tally.statuses,
                    "sources": tally.sources,
                    "latency": _latency_summary(latencies),
                    "baseline_cost_seconds": round(baseline_cost, 6),
                    "served_cost_seconds": round(served_cost, 6),
                    "saved_seconds": round(baseline_cost - served_cost, 6),
                    "saved_ratio": round(1.0 - served_cost / baseline_cost, 6)
                    if baseline_cost
                    else None,
                    "rows_match_solo": not mismatches,
                    "mismatched_requests": mismatches,
                    "counters": service.counter_snapshot(),
                }
            )

    overall_slo = evaluate_slo(slo, pooled_latencies)
    verdicts = {
        "all_rows_match": all(run["rows_match_solo"] for run in runs),
        # The tentpole claim: sharing strictly reduces total simulated
        # cost on every seed (meaningless with both levers off).
        "cost_strictly_reduced": all(per_seed_reduced)
        if (spec.batching or spec.caching)
        else None,
        "slo_pass": overall_slo["pass"],
    }
    return {
        "schema": SERVE_SCHEMA,
        "mix": spec.mix,
        "dataset": dataset,
        "preset": preset,
        "queries": list(qids),
        "workload": asdict(spec),
        "baseline": baseline,
        "runs": runs,
        "slo": {
            "overall": overall_slo,
            "per_seed": per_seed_slo,
        },
        "summary": {
            "total_baseline_cost_seconds": round(total_baseline, 6),
            "total_served_cost_seconds": round(total_served, 6),
            "total_saved_seconds": round(total_baseline - total_served, 6),
            "total_saved_ratio": round(1.0 - total_served / total_baseline, 6)
            if total_baseline
            else None,
        },
        "verdicts": verdicts,
    }


def serve_workload_with_metrics(
    spec: WorkloadSpec,
    graph: Graph | None = None,
    slo: SLOSpec | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the workload collecting metrics; returns (report, snapshot).

    The snapshot is ``repro-metrics/v1``: every deterministic instrument
    the serve/runner/planner layers recorded, the report's SLO verdict,
    and the calibration monitor's q-error/drift report.  Byte-identical
    across runs for a fixed spec — it is what
    ``repro serve --workload ... --metrics`` writes and what the CI
    golden pins.
    """
    registry = obs_metrics.MetricsRegistry()
    calibration = CalibrationMonitor()
    report = serve_workload_report(
        spec, graph, slo=slo, registry=registry, calibration=calibration
    )
    snapshot = obs_metrics.snapshot_dict(
        registry, slo=report["slo"]["overall"], calibration=calibration.report()
    )
    return report, snapshot


def render_serve_report(report: dict[str, Any]) -> str:
    """Terminal view: per-seed sharing effectiveness."""
    workload = report["workload"]
    lines = [
        f"{report['mix']} serve workload "
        f"(seeds=1..{workload['seeds']}, clients={workload['clients']}, "
        f"requests={workload['requests']}, engine={workload['engine']}, "
        f"batch={'on' if workload['batching'] else 'off'}, "
        f"cache={'on' if workload['caching'] else 'off'})",
        f"{'seed':>4s} {'reqs':>5s} {'ok':>4s} {'hits':>5s} {'merged':>7s} "
        f"{'baseline':>10s} {'served':>9s} {'saved':>8s} {'p50':>8s} {'p99':>8s}",
    ]
    for run in report["runs"]:
        counters = run["counters"]
        lines.append(
            f"{run['seed']:4d} {run['requests']:5d} "
            f"{run['statuses'].get('ok', 0):4d} "
            f"{counters.get('result_cache_hits', 0):5d} "
            f"{counters.get('batch_merged_requests', 0):7d} "
            f"{run['baseline_cost_seconds']:9.1f}s {run['served_cost_seconds']:8.1f}s "
            f"{(run['saved_ratio'] or 0.0) * 100:7.1f}% "
            f"{run['latency']['p50']:8.3f} {run['latency']['p99']:8.3f}"
        )
    summary = report["summary"]
    verdicts = report["verdicts"]
    lines.append(
        f"total: baseline {summary['total_baseline_cost_seconds']:.1f}s, "
        f"served {summary['total_served_cost_seconds']:.1f}s, "
        f"saved {summary['total_saved_seconds']:.1f}s"
    )
    lines.append(
        f"answers bit-identical to cold solo runs: {verdicts['all_rows_match']}; "
        f"cost strictly reduced on every seed: {verdicts['cost_strictly_reduced']}"
    )
    slo = report.get("slo")
    if slo is not None:
        overall = slo["overall"]
        targets = overall["targets"]
        rendered_targets = ", ".join(
            f"{name}<={targets[name]:g}s"
            for name in ("p50", "p95", "p99")
            if targets.get(name) is not None
        )
        lines.append(
            f"SLO [{rendered_targets}, budget={targets['budget']:g}]: "
            f"{'PASS' if overall['pass'] else 'FAIL'} "
            f"(burn {overall['budget_burn'] * 100:.1f}% of "
            f"{overall['count']} completed)"
        )
    return "\n".join(lines)


def _violations(report: dict[str, Any]) -> list[str]:
    bad = [
        f"seed{run['seed']}:{run['mismatched_requests']}"
        for run in report["runs"]
        if not run["rows_match_solo"]
    ]
    return [f"served answers differ from cold solo runs: {bad}"] if bad else []


#: A diff against a committed report catches any scheduler, cache, or
#: batching change that moves a latency, a counter, or a verdict.
KIND = ReportKind(
    schema=SERVE_SCHEMA,
    label="serve golden",
    head=("schema", "mix", "dataset", "preset", "queries", "workload", "baseline"),
    key=("seed",),
    tail=("slo", "summary", "verdicts"),
    rerun=lambda golden: serve_workload_report(
        WorkloadSpec(**golden["workload"]),
        slo=SLOSpec(**golden["slo"]["overall"]["targets"]),
    ),
    render=render_serve_report,
    violations=_violations,
)
