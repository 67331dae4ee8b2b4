"""The perf ledger's one command.

The gate's protocol (one workload, one run, result as the last line)::

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The whole ledger (every workload in its own fresh process, every metric
printed by name with its unit, ``ledger/out/ledger.json`` written)::

    python3 ledger/run.py --all --seed N [--trace]

Two result sets against the bounds in ``BENCHMARK.json``::

    python3 ledger/run.py --compare A.json B.json

Each workload runs in a child process started with ``PYTHONHASHSEED=0``
and ``PYTHONPATH=src``; the parent only starts it, enforces the budget
(a workload that takes more than twice its sized duration is aborted
with a message, not left hanging), and prints.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

import metrics
from calibrate import CAL_REF_S
from workloads import (
    OUT_DIR,
    REPO_ROOT,
    SIZES,
    SRC_DIR,
    WORKLOAD_CLASSES,
    WORKLOADS,
    Clock,
    Sizes,
    child_env,
    load_program,
)

RUN_SECONDS = metrics.load_benchmark()["run_seconds"]
MAX_FAILURES_KEPT = 20


# ---------------------------------------------------------------------------
# Child side: one workload in this process
# ---------------------------------------------------------------------------


def set_up(
    name: str, seed: int, sizes: Sizes, clock: Clock, reps: int
) -> tuple[Any, list[float], list[float]]:
    """Import, choose inputs, then set up *reps* times.

    One set-up is: generate the inputs, then the cold warm-up that
    derives layouts, statistics and partitions.  The import happens once
    per process, so its wall is added to every repetition.  Returns the
    workload (holding the last repetition's inputs) with the raw and the
    calibrated ``setup_s`` samples."""
    program, import_raw, import_cal = clock.measure(load_program)
    workload = WORKLOAD_CLASSES[name](program, sizes, seed)
    workload.prepare()
    clock.calibrator.mark()
    raw, cal = [], []

    def once() -> None:
        workload.generate()
        workload.warm_up()

    for _ in range(reps):
        _, seconds, calibrated = clock.measure(once)
        raw.append(import_raw + seconds)
        cal.append(import_cal + calibrated)
    workload.build_oracle()
    clock.calibrator.mark()
    return workload, raw, cal


def peak_rss_mb(name: str) -> float:
    """``ru_maxrss`` of this process; of its children for cold-cli, whose
    work happens in the ``python -m repro`` processes."""
    who = resource.RUSAGE_CHILDREN if name == "cold-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def exact_gate(passes: list[Any]) -> list[str]:
    """Simulated counters must repeat bit for bit from pass to pass."""
    problems = []
    first = passes[0].exact
    for index, other in enumerate(passes[1:], start=2):
        for key in sorted(set(first) | set(other.exact)):
            if first.get(key) != other.exact.get(key):
                problems.append(
                    f"exact metric {key} differs between pass 1 and pass {index}: "
                    f"{first.get(key)!r} != {other.exact.get(key)!r}"
                )
                break
    return problems


def child_end_to_end(name: str, seed: int, seconds: float, sizes: Sizes) -> dict[str, Any]:
    started = time.perf_counter()
    clock = Clock()
    workload, setup_raw, setup_cal = set_up(name, seed, sizes, clock, sizes.setup_reps)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        pass_started = time.perf_counter()
        passes.append(workload.run_pass(clock))
        now = time.perf_counter()
        if len(passes) >= sizes.min_passes and now + 0.5 * (now - pass_started) >= deadline:
            break

    def role(outcome: Any, parts: tuple[str, ...], which: str) -> float:
        return sum(getattr(outcome, which)[part] for part in parts)

    entries = {
        "setup_s": metrics.summarize(setup_cal, "s", setup_raw),
        "pass_s": metrics.summarize(
            [sum(p.cal.values()) for p in passes], "s", [sum(p.raw.values()) for p in passes]
        ),
    }
    for role_name, parts in workload.roles.items():
        entries[f"{role_name}_s"] = metrics.summarize(
            [role(p, parts, "cal") for p in passes], "s", [role(p, parts, "raw") for p in passes]
        )
    entries["peak_rss_mb"] = metrics.single(peak_rss_mb(name), "MB")
    failures = [f for p in passes for f in p.failures] + exact_gate(passes)
    attempted = sum(p.attempted for p in passes)
    op_raw = [seconds_ for p in passes for seconds_ in p.op_raw]
    return {
        "schema": metrics.SCHEMA,
        "workload": name,
        "seed": seed,
        "sizes": sizes.label,
        "mode": "end_to_end",
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures[:MAX_FAILURES_KEPT],
        "passes": len(passes),
        "elapsed_raw_s": time.perf_counter() - started,
        "metrics": entries,
        "parts": {
            part: metrics.summarize([p.cal[part] for p in passes], "s", [p.raw[part] for p in passes])
            for part in passes[0].cal
        },
        "op_raw_s": metrics.summarize(op_raw, "s") if op_raw else None,
        "exact": passes[0].exact,
        "host_cal_s": statistics.median(clock.calibrator.samples),
        "kernel_samples": clock.calibrator.samples,
    }


def child_traced(name: str, seed: int, sizes: Sizes) -> dict[str, Any]:
    import probes

    started = time.perf_counter()
    clock = Clock()
    workload, _, _ = set_up(name, seed, sizes, clock, 1)
    traced = probes.traced_run(workload, sizes, clock)
    units = {n: spec["unit"] for n, spec in metrics.per_layer_specs().items()}
    units.update({n: unit for n, (unit, _) in metrics.OWNER_EXTRAS[name].items()})
    entries = {}
    for metric, value in traced["values"].items():
        unit = units.get(metric, "s")
        if value is None or metric in metrics.RAW_SECONDS:
            pass
        elif unit == "s":
            value = value * traced["factor"]
        elif unit == "1/s":
            value = value / traced["factor"]
        entries[metric] = metrics.single(value, unit, traced["reasons"].get(metric, ""))
    failures = traced["failures"]
    return {
        "schema": metrics.SCHEMA,
        "workload": name,
        "seed": seed,
        "sizes": sizes.label,
        "mode": "traced",
        "correct": not failures,
        "attempted": traced["attempted"],
        "failed": min(traced["attempted"], len(failures)),
        "failures": failures[:MAX_FAILURES_KEPT],
        "elapsed_raw_s": time.perf_counter() - started,
        "metrics": entries,
        "exact": traced["exact"],
        "trace_file": traced["trace_file"],
        "op_wall_s": traced["op_wall_s"] * traced["factor"],
        "self_time_by_layer": {
            k: v * traced["factor"] for k, v in traced["self_time_by_layer"].items()
        },
        "self_time_by_span": {
            k: v * traced["factor"] for k, v in traced["self_time_by_span"].items()
        },
    }


def child_exact(name: str, seed: int, sizes: Sizes) -> dict[str, Any]:
    """One short pass; only its exact counters matter (hash-seed gate)."""
    clock = Clock()
    program = load_program()
    workload = WORKLOAD_CLASSES[name](program, sizes, seed)
    workload.prepare()
    workload.generate()
    workload.warm_up()
    workload.build_oracle()
    outcome = workload.run_pass(clock)
    return {"exact": outcome.exact, "failures": outcome.failures[:MAX_FAILURES_KEPT]}


def child_main(args: argparse.Namespace) -> int:
    sizes = SIZES[args.sizes]
    if args.child == "end_to_end":
        result = child_end_to_end(args.workload, args.seed, args.seconds, sizes)
    elif args.child == "traced":
        result = child_traced(args.workload, args.seed, sizes)
    else:
        result = child_exact(args.workload, args.seed, sizes)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def spawn_child(
    mode: str, name: str, seed: int, seconds: float, sizes: Sizes, hashseed: str = "0"
) -> dict[str, Any] | None:
    """Run one workload in a fresh process under the budget guard."""
    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = mode if hashseed == "0" else f"{mode}.hashseed{hashseed}"
    out = os.path.join(OUT_DIR, f"{name}.{suffix}.json")
    if os.path.exists(out):
        os.remove(out)
    sized = sizes.traced_budget_s if mode == "traced" else sizes.overhead_budget_s + seconds
    env = child_env()
    env["PYTHONHASHSEED"] = env["LEDGER_HASHSEED"] = hashseed
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode, "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--sizes", sizes.label, "--out", out,
    ]  # fmt: skip
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, cwd=REPO_ROOT, start_new_session=True)
    try:
        process.wait(timeout=2.0 * sized)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(
            f"ledger: ABORTED {name} ({mode}): ran past {2.0 * sized:.0f}s raw, twice the "
            f"{sized:.0f}s it is sized for; sizes live in ledger/workloads.py",
            flush=True,
        )
        return None
    elapsed = time.perf_counter() - started
    print(f"ledger: {name} ({suffix}) elapsed {elapsed:.1f}s raw", flush=True)
    if process.returncode != 0 or not os.path.exists(out):
        print(f"ledger: {name} ({suffix}) exited with code {process.returncode}", flush=True)
        return None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def hashseed_gate(result: dict[str, Any], sizes: Sizes) -> list[str]:
    """One extra short pass under ``PYTHONHASHSEED=1``: every exact
    counter must equal the main run's."""
    other = spawn_child("exact", result["workload"], result["seed"], 0.0, sizes, hashseed="1")
    if other is None:
        return ["hash-seed gate: the PYTHONHASHSEED=1 pass did not finish"]
    problems = [f"hash-seed gate: {failure}" for failure in other["failures"]]
    for key in sorted(set(result["exact"]) | set(other["exact"])):
        if result["exact"].get(key) != other["exact"].get(key):
            problems.append(
                f"hash-seed gate: exact metric {key} is {result['exact'].get(key)!r} under "
                f"PYTHONHASHSEED=0 and {other['exact'].get(key)!r} under =1"
            )
    return problems


def apply_gate(result: dict[str, Any], sizes: Sizes) -> None:
    problems = hashseed_gate(result, sizes)
    if problems:
        result["correct"] = False
        result["failures"] = (result["failures"] + problems)[:MAX_FAILURES_KEPT]
        result["failed"] = min(result["attempted"], result["failed"] + len(problems))


def print_metrics(result: dict[str, Any]) -> None:
    name = result["workload"]
    for metric, entry in sorted(result["metrics"].items()):
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if "iqr" in entry:
            extra = f"  iqr={entry['iqr']:.3g} max={entry['max']:.4g} n={entry['n']}"
        if "raw" in entry:
            extra += f" raw={entry['raw']:.4g}"
        if "p95" in entry:
            extra += f" p95={entry['p95']:.4g}"
        if value is None:
            extra = f"  ({entry.get('reason', '')})"
        alias = metrics.ROLE_ALIASES.get((name, metric))
        label = f"{metric} [{alias}]" if alias else metric
        print(f"{name:14s} {label:48s} {shown:>12s} {entry['unit']:8s}{extra}")
    for failure in result["failures"]:
        print(f"{name:14s} FAILED: {failure}")
    sys.stdout.flush()


def gate_main(args: argparse.Namespace) -> int:
    """The gate's protocol: one run, the result object as the last line."""
    sizes = SIZES[args.sizes]
    mode = "traced" if args.trace else "end_to_end"
    result = spawn_child(mode, args.workload, args.seed, args.seconds, sizes)
    if result is None:
        return 1
    if args.trace:
        apply_gate(result, sizes)
        declared = metrics.per_layer_specs()
    else:
        declared = metrics.end_to_end_specs()
    print_metrics(result)
    print(json.dumps(gate_line(result, declared)))
    return 0


def gate_line(result: dict[str, Any], declared: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The result object of the gate's protocol: every declared metric
    of the run's kind, and nothing else."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"].get(name, {}).get("value"), "unit": spec["unit"]}
            for name, spec in declared.items()
        },
    }


def all_main(args: argparse.Namespace) -> int:
    sizes = SIZES[args.sizes]
    ledger: dict[str, Any] = {
        "schema": metrics.SCHEMA,
        "seed": args.seed,
        "sizes": sizes.label,
        "cal_ref_s": CAL_REF_S,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        runs: dict[str, Any] = {}
        result = spawn_child("end_to_end", name, args.seed, args.seconds, sizes)
        if result is not None:
            apply_gate(result, sizes)
            runs["end_to_end"] = result
            print_metrics(result)
        if args.trace:
            traced = spawn_child("traced", name, args.seed, args.seconds, sizes)
            if traced is not None:
                runs["traced"] = traced
                print_metrics(traced)
        ok = ok and len(runs) == 1 + int(args.trace) and all(r["correct"] for r in runs.values())
        ledger["workloads"][name] = runs
    out = args.out or os.path.join(OUT_DIR, "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    print(f"ledger: wrote {os.path.relpath(out)}; {'all correct' if ok else 'FAILURES above'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare_rows(base: dict[str, Any], other: dict[str, Any]) -> list[tuple]:
    """One row per (workload, metric) present in both sets."""
    bounds = metrics.end_to_end_specs()
    rows = []
    for name in WORKLOADS:
        for mode in ("end_to_end", "traced"):
            left = base["workloads"].get(name, {}).get(mode)
            right = other["workloads"].get(name, {}).get(mode)
            if left is None or right is None:
                continue
            if mode == "end_to_end":
                for key in sorted(set(left["exact"]) & set(right["exact"])):
                    same = left["exact"][key] == right["exact"][key]
                    rows.append(
                        (name, key, left["exact"][key], right["exact"][key], "exact",
                         "ok" if same else "regressed")
                    )  # fmt: skip
                same = (left["attempted"] > 0, left["failed"]) == (right["attempted"] > 0, right["failed"])
                rows.append(
                    (name, "error_rate", left["failed"] / left["attempted"],
                     right["failed"] / right["attempted"], "exact", "ok" if same else "regressed")
                )  # fmt: skip
            for metric in sorted(set(left["metrics"]) & set(right["metrics"])):
                a, b = left["metrics"][metric], right["metrics"][metric]
                if a["value"] is None or b["value"] is None:
                    rows.append((name, metric, a["value"], b["value"], "-", "null"))
                    continue
                spec = bounds.get(metric) if mode == "end_to_end" else None
                if spec is None:
                    if metrics.is_exact(name, metric):
                        verdict = "ok" if a["value"] == b["value"] else "regressed"
                        rows.append((name, metric, a["value"], b["value"], "exact", verdict))
                    else:
                        rows.append((name, metric, a["value"], b["value"], "-", "info"))
                    continue
                bound = spec["bound"]
                worse = b["value"] / a["value"] - 1.0
                if spec["better"] == "higher":
                    worse = a["value"] / b["value"] - 1.0
                # What the median inherits from its samples' spread.
                spread = max(
                    entry.get("iqr", 0.0) / entry["value"] / math.sqrt(entry.get("n", 1))
                    for entry in (a, b)
                )
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
                rows.append((name, metric, a["value"], b["value"], bound, verdict))
    return rows


def compare_main(args: argparse.Namespace) -> int:
    with open(args.compare[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.compare[1], encoding="utf-8") as handle:
        other = json.load(handle)
    for side in (base, other):
        if side.get("schema") != metrics.SCHEMA:
            print(f"not a {metrics.SCHEMA} result set")
            return 2
    rows = compare_rows(base, other)
    print(f"{'workload':14s} {'metric':44s} {'base':>12s} {'other':>12s} {'ratio':>7s} {'bound':>6s} verdict")
    bad = 0
    for name, metric, a, b, bound, verdict in rows:
        ratio = f"{b / a:.3f}" if metrics.is_finite(a) and metrics.is_finite(b) and a else "-"
        shown = [("null" if v is None else f"{v:.6g}") for v in (a, b)]
        print(f"{name:14s} {metric:44s} {shown[0]:>12s} {shown[1]:>12s} {ratio:>7s} {str(bound):>6s} {verdict}")
        bad += verdict in ("regressed", "unresolved")
    print(f"{len(rows)} rows, {bad} regressed or unresolved")
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", dest="sizes", action="store_const", const="smoke",
                        help="the self-test's small constants instead of the full ones")
    parser.add_argument("--sizes", choices=sorted(SIZES), help=argparse.SUPPRESS)
    parser.set_defaults(sizes="full")
    parser.add_argument("--out", help="where --all writes its result set")
    parser.add_argument("--child", choices=("end_to_end", "traced", "exact"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(args)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"ledger: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 1
    if args.child:
        return child_main(args)
    if args.all:
        return all_main(args)
    if args.workload is None:
        parser.error("one of --workload, --all, --compare is required")
    return gate_main(args)


if __name__ == "__main__":
    sys.exit(main())
