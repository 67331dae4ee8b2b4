"""The ``repro bench --profile`` harness.

Runs paper experiments several times in one process — once with the
hot-path caches enabled, once with the factorized intermediate
representation forced off (the flat A/B baseline), and once in
:func:`repro.perf.reference_mode` (the seed's uncached implementation)
— then:

* asserts the simulated counters, costs, and result-row digests are
  **bit-identical** between the cached and reference executions (the
  caching invariant);
* asserts every answer is **bit-identical** between the factorized and
  flat executions (the factorization invariant — simulated byte
  counters legitimately differ, that is the point);
* reports the per-run bytes-shuffled reduction factorization bought
  (``shuffle_reduction``) alongside the flat-pass byte counters;
* reports real wall-clock time per engine run, broken into phases
  (``plan``, ``load``, ``jobs``, ``shuffle``, ``materialize``);
* emits a machine-readable JSON report (``BENCH_PR6.json``) in a stable
  schema so the perf trajectory can be tracked across PRs.

The reference pass can be skipped (``reference=False``) when only the
phase breakdown is wanted; the flat A/B pass with ``flat_baseline=False``.
:data:`KIND` pins the reduction claim in CI: the committed golden must
show >= 25% bytes-shuffled reduction on at least two MG-class queries,
and a fresh report must agree with it exactly on every simulated number
(``shuffle_reduction`` included: it is a rounded ratio of two integers
that are themselves compared exactly).
"""

from __future__ import annotations

import platform
from typing import Any, Callable

from repro.bench.harness import (
    ExperimentResult,
    table3_bsbm,
    table3_chem,
    figure8a,
    figure8b,
    figure8c,
    table4_pubmed,
)
from repro.datasets import generate
from repro.errors import ReproError
from repro.ntga.factorized import active_representation
from repro.obs import Stopwatch
from repro.perf import PerfRecorder, recording, reference_mode
from repro.report import ReportKind

#: Schema tag for the JSON report; bump on shape changes.
PROFILE_SCHEMA = "repro-bench-profile/v2"

#: Experiments the profiler knows how to run.  Each entry maps the
#: experiment id to ``(dataset builder, experiment runner)`` where the
#: runner takes a pre-built graph (so cached and reference passes see
#: the same data) and a verify flag.
Runner = Callable[[Any, bool], ExperimentResult]


PROFILE_EXPERIMENTS: dict[str, tuple[str, str, Runner]] = {
    "table3-bsbm-tiny": ("bsbm", "tiny", lambda g, v: table3_bsbm("tiny", v, g)),
    "table3-bsbm-500k": ("bsbm", "500k", lambda g, v: table3_bsbm("500k", v, g)),
    "table3-bsbm-2m": ("bsbm", "2m", lambda g, v: table3_bsbm("2m", v, g)),
    "table3-chem": ("chem", "paper", lambda g, v: table3_chem(v, g)),
    "figure8a": ("bsbm", "500k", lambda g, v: figure8a(v, g)),
    "figure8b": ("bsbm", "2m", lambda g, v: figure8b(v, g)),
    "figure8c": ("chem", "paper", lambda g, v: figure8c(v, g)),
    "table4": ("pubmed", "paper", lambda g, v: table4_pubmed(v, g)),
}


def _measurement_signature(result: ExperimentResult) -> dict[tuple[str, str], dict]:
    """The invariant slice of an experiment's measurements."""
    signature: dict[tuple[str, str], dict] = {}
    for m in result.measurements:
        signature[(m.qid, m.engine)] = {
            "rows": m.rows,
            "rows_digest": m.rows_digest,
            "cycles": m.cycles,
            "map_only_cycles": m.map_only_cycles,
            "cost_seconds": repr(m.cost_seconds),
            "shuffle_bytes": m.shuffle_bytes,
            "materialized_bytes": m.materialized_bytes,
            "counters": m.counters,
            "failed": m.failed,
        }
    return signature


def _runs_payload(
    result: ExperimentResult, flat_result: ExperimentResult | None = None
) -> list[dict[str, Any]]:
    flat_by_key = (
        {(m.qid, m.engine): m for m in flat_result.measurements}
        if flat_result is not None
        else {}
    )
    runs: list[dict[str, Any]] = []
    for m in result.measurements:
        run: dict[str, Any] = {
            "qid": m.qid,
            "engine": m.engine,
            "rows": m.rows,
            "rows_digest": m.rows_digest,
            "cycles": m.cycles,
            "map_only_cycles": m.map_only_cycles,
            "simulated_cost_seconds": m.cost_seconds,
            "shuffle_bytes": m.shuffle_bytes,
            "materialized_bytes": m.materialized_bytes,
            "wall_seconds": round(m.wall_seconds, 6),
            "phases": {k: round(v, 6) for k, v in sorted(m.phases.items())},
            "failed": m.failed,
        }
        flat = flat_by_key.get((m.qid, m.engine))
        if flat is not None:
            run["shuffle_bytes_flat"] = flat.shuffle_bytes
            run["materialized_bytes_flat"] = flat.materialized_bytes
            run["flat_wall_seconds"] = round(flat.wall_seconds, 6)
            run["shuffle_reduction"] = (
                round(1.0 - m.shuffle_bytes / flat.shuffle_bytes, 6)
                if flat.shuffle_bytes
                else None
            )
        runs.append(run)
    return runs


def profile_experiments(
    names: list[str],
    *,
    reference: bool = True,
    flat_baseline: bool = True,
    verify: bool = False,
    pr_tag: str = "PR6",
) -> dict[str, Any]:
    """Profile the named experiments; returns the JSON-ready report.

    Raises :class:`ReproError` when the cached and reference executions
    disagree on any simulated counter, cost, or result digest, or when
    the factorized and flat executions disagree on any answer.
    """
    unknown = [n for n in names if n not in PROFILE_EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(PROFILE_EXPERIMENTS))
        raise ReproError(f"unknown profile experiment(s) {unknown} (known: {known})")

    experiments: list[dict[str, Any]] = []
    mismatches: list[str] = []
    total_wall = 0.0
    total_reference_wall = 0.0

    for name in names:
        dataset, preset, runner = PROFILE_EXPERIMENTS[name]
        graph = generate(dataset, preset)

        recorder = PerfRecorder()
        with Stopwatch() as watch:
            with recording(recorder):
                result = runner(graph, verify)
        wall = watch.seconds

        flat_result = None
        flat_wall = None
        if flat_baseline:
            # The A/B pass: same experiment with the factorized
            # representation forced off.  Answers must be bit-identical;
            # the byte counters are *expected* to differ — that delta is
            # the headline shuffle_reduction column.
            with Stopwatch() as flat_watch:
                with active_representation("flat"):
                    flat_result = runner(graph, verify)
            flat_wall = flat_watch.seconds
            cached_by_key = {
                (m.qid, m.engine): m for m in result.measurements
            }
            for m in flat_result.measurements:
                peer = cached_by_key.get((m.qid, m.engine))
                if peer is None or (peer.rows, peer.rows_digest) != (
                    m.rows,
                    m.rows_digest,
                ):
                    mismatches.append(
                        f"representation:{name}:{m.qid}/{m.engine} "
                        f"factorized rows/digest "
                        f"{(peer.rows, peer.rows_digest) if peer else None!r} "
                        f"!= flat {(m.rows, m.rows_digest)!r}"
                    )

        entry: dict[str, Any] = {
            "exp_id": name,
            "dataset": dataset,
            "preset": preset,
            "wall_seconds": round(wall, 6),
            "engine_wall_seconds": round(recorder.total_wall_seconds(), 6),
            "runs": _runs_payload(result, flat_result),
        }
        if flat_wall is not None:
            entry["flat_wall_seconds"] = round(flat_wall, 6)

        if reference:
            with Stopwatch() as ref_watch:
                with reference_mode():
                    ref_result = runner(graph, verify)
            ref_wall = ref_watch.seconds
            entry["reference_wall_seconds"] = round(ref_wall, 6)
            entry["speedup"] = round(ref_wall / wall, 3) if wall else None
            cached_sig = _measurement_signature(result)
            ref_sig = _measurement_signature(ref_result)
            for key in sorted(set(cached_sig) | set(ref_sig)):
                if cached_sig.get(key) != ref_sig.get(key):
                    mismatches.append(
                        f"{name}:{key[0]}/{key[1]} cached={cached_sig.get(key)!r} "
                        f"reference={ref_sig.get(key)!r}"
                    )
            total_reference_wall += ref_wall

        total_wall += wall
        experiments.append(entry)

    report: dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "pr": pr_tag,
        "generated_by": "repro bench --profile",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "experiments": experiments,
        "suite": {
            "experiments": names,
            "wall_seconds": round(total_wall, 6),
        },
        # Vacuously claiming a match when the reference pass was skipped
        # would let a --no-reference run masquerade as verified: use None.
        "counters_match_reference": (
            not [m for m in mismatches if not m.startswith("representation:")]
        )
        if reference
        else None,
        "answers_match_flat": (
            not [m for m in mismatches if m.startswith("representation:")]
        )
        if flat_baseline
        else None,
    }
    if reference:
        report["suite"]["reference_wall_seconds"] = round(total_reference_wall, 6)
        report["suite"]["speedup"] = (
            round(total_reference_wall / total_wall, 3) if total_wall else None
        )
    if mismatches:
        report["mismatches"] = mismatches
        raise ProfileMismatchError(report, mismatches)
    return report


class ProfileMismatchError(ReproError):
    """Cached and reference executions produced different simulated numbers."""

    def __init__(self, report: dict[str, Any], mismatches: list[str]):
        self.report = report
        self.mismatches = mismatches
        preview = "; ".join(mismatches[:5])
        super().__init__(
            f"{len(mismatches)} simulated-counter mismatch(es) between cached "
            f"and reference execution: {preview}"
        )


#: The run fields that are the same on every machine; wall-clock fields
#: are deliberately left out of a golden comparison.
_EXACT_RUN_FIELDS = (
    "qid", "engine", "rows", "rows_digest", "cycles", "map_only_cycles",
    "shuffle_bytes", "materialized_bytes", "shuffle_bytes_flat",
    "materialized_bytes_flat", "shuffle_reduction", "failed",
)

#: What a committed profile report must certify (``BENCH_PR6.json``).
_MIN_REDUCTION = 0.25
_MIN_QUERIES = 2


def _exact(report: dict[str, Any]) -> dict[str, Any]:
    """The machine-independent slice: which experiments ran, and their
    runs flattened under an ``(exp_id, qid, engine)`` key."""
    experiments = report.get("experiments", [])
    return {
        "schema": report.get("schema"),
        "experiments": [experiment["exp_id"] for experiment in experiments],
        "runs": [
            {
                "exp_id": experiment["exp_id"],
                **{name: run.get(name) for name in _EXACT_RUN_FIELDS},
            }
            for experiment in experiments
            for run in experiment.get("runs", [])
        ],
    }


def _certify(golden: dict[str, Any]) -> list[str]:
    """The factorization claim a committed report must carry: at least
    25% bytes-shuffled reduction on at least two MG-class queries, with
    every flat-vs-factorized answer bit-identical."""
    problems: list[str] = []
    if golden.get("answers_match_flat") is not True:
        problems.append(
            "golden does not certify flat-vs-factorized answer identity "
            f"(answers_match_flat={golden.get('answers_match_flat')!r})"
        )
    reduced = sorted(
        {
            run["qid"]
            for run in _exact(golden)["runs"]
            if run["qid"].startswith("MG")
            and (run["shuffle_reduction"] or 0.0) >= _MIN_REDUCTION
        }
    )
    if len(reduced) < _MIN_QUERIES:
        problems.append(
            f"golden shows >= {_MIN_REDUCTION:.0%} shuffle reduction on only "
            f"{len(reduced)} MG-class quer{'y' if len(reduced) == 1 else 'ies'} "
            f"({', '.join(reduced) or 'none'}); need {_MIN_QUERIES}"
        )
    return problems


def render_report(report: dict[str, Any]) -> str:
    """A terminal-friendly per-engine, per-phase timing table."""
    lines: list[str] = []
    for experiment in report["experiments"]:
        header = f"{experiment['exp_id']} ({experiment['dataset']}/{experiment['preset']})"
        timing = f"wall={experiment['wall_seconds']:.2f}s"
        if "reference_wall_seconds" in experiment:
            timing += (
                f" reference={experiment['reference_wall_seconds']:.2f}s"
                f" speedup={experiment['speedup']}x"
            )
        lines.append(f"{header}: {timing}")
        lines.append(
            f"  {'query':6s} {'engine':16s} {'wall':>8s} "
            f"{'plan':>7s} {'load':>7s} {'jobs':>7s} {'shuffle':>8s} {'matrlz':>7s} "
            f"{'reduc':>7s}"
        )
        for run in experiment["runs"]:
            phases = run["phases"]
            reduction = run.get("shuffle_reduction")
            lines.append(
                f"  {run['qid']:6s} {run['engine']:16s} {run['wall_seconds']:7.3f}s "
                f"{phases.get('plan', 0.0):6.3f}s {phases.get('load', 0.0):6.3f}s "
                f"{phases.get('jobs', 0.0):6.3f}s {phases.get('shuffle', 0.0):7.3f}s "
                f"{phases.get('materialize', 0.0):6.3f}s "
                + (f"{reduction * 100:6.1f}%" if reduction is not None else f"{'-':>7s}")
            )
    suite = report["suite"]
    summary = f"SUITE: wall={suite['wall_seconds']:.2f}s"
    if "reference_wall_seconds" in suite:
        summary += (
            f" reference={suite['reference_wall_seconds']:.2f}s"
            f" speedup={suite['speedup']}x"
        )
    if report["counters_match_reference"] is not None:
        summary += f" counters_match_reference={report['counters_match_reference']}"
    if report.get("answers_match_flat") is not None:
        summary += f" answers_match_flat={report['answers_match_flat']}"
    lines.append(summary)
    return "\n".join(lines)


KIND = ReportKind(
    schema=PROFILE_SCHEMA,
    label="golden",
    head=("schema", "experiments"),
    key=("exp_id", "qid", "engine"),
    tail=(),
    rerun=lambda golden: profile_experiments(
        [experiment["exp_id"] for experiment in golden["experiments"]],
        reference=golden.get("counters_match_reference") is not None,
    ),
    render=render_report,
    certify=_certify,
    exact=_exact,
)
