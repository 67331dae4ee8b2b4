"""The perf trajectory: one committed row per PR, beside the ledger.

``benchmarks/trajectory/PR<N>.json`` holds what a PR measured with the
perf ledger (``ledger/``, the instrument, which this script only reads):

* ``exact`` -- the exact rows (``sim.*``, ``serve.*`` counters and every
  other metric the ledger marks exact) of one traced run per workload,
  with the sizes and seed they were taken at, keyed by Python minor
  version: float sums differ in their last digits between 3.11 and 3.12;
* ``paired`` -- for a PR with a wall claim, per seed, workload and gate
  metric, the parent's and the change's median and quartiles over
  alternating pairs, the pair count and how many pairs the change won;
* ``baseline`` -- for the first row, which had no parent: per workload
  and gate metric, the medians of its unpaired runs;
* ``why`` -- one line; it must name every exact row the PR moved
  (``moved``: ``{workload: {metric: [parent, change]}}``).

Rows transcribed from older CHANGES.md lines say ``"transcribed": true``;
a PR that measured nothing says ``"measured": false``.  Usage::

    python3 benchmarks/trajectory.py             # validate; TRAJECTORY.md must be current
    python3 benchmarks/trajectory.py --write     # validate and re-render TRAJECTORY.md
    python3 benchmarks/trajectory.py --record ledger/out   # exact rows of traced runs, as JSON
    python3 benchmarks/trajectory.py --check ledger/out    # traced runs vs the newest row

``--check`` reads ``<dir>/<workload>.traced.json`` as ``ledger/run.py
--workload W --trace 1`` leaves them and fails on any exact row that
differs from the newest committed row taken at the same sizes and seed
under the running interpreter's minor version.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
ROWS_DIR = os.path.join(HERE, "trajectory")
RENDERED = os.path.join(HERE, "TRAJECTORY.md")

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
GATE_METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
SEEDS = ("11", "29")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
#: What the ledger protocol asks of a claim: at least ten pairs, won in
#: nine tenths of them, on each seed.
MIN_PAIRS, MIN_WIN_SHARE = 10, 0.9

Row = dict[str, Any]


class TrajectoryError(Exception):
    pass


def _fail(pr: Any, message: str) -> None:
    raise TrajectoryError(f"PR{pr}: {message}")


def load_rows() -> list[Row]:
    rows = []
    for name in os.listdir(ROWS_DIR):
        match = re.fullmatch(r"PR(\d+)\.json", name)
        if match is None:
            raise TrajectoryError(f"{name}: not a PR<N>.json file")
        with open(os.path.join(ROWS_DIR, name), encoding="utf-8") as handle:
            row = json.load(handle)
        if row.get("pr") != int(match.group(1)):
            raise TrajectoryError(f"{name}: its pr field is {row.get('pr')!r}")
        rows.append(row)
    return sorted(rows, key=lambda row: row["pr"])


def _better(metric: str) -> str:
    (spec,) = [m for m in BENCHMARK["end_to_end"] if m["name"] == metric]
    return spec["better"]


def _check_side(pr: int, where: str, side: Any, transcribed: bool) -> None:
    if not (isinstance(side, list) and len(side) == 3):
        _fail(pr, f"{where}: expected [q1, median, q3]")
    q1, median, q3 = side
    if not isinstance(median, (int, float)):
        _fail(pr, f"{where}: the median is not a number")
    if q1 is None and q3 is None and transcribed:
        return
    if not all(isinstance(v, (int, float)) for v in side) or not q1 <= median <= q3:
        _fail(pr, f"{where}: quartiles out of order {side}")


def _check_paired(row: Row) -> None:
    pr, transcribed = row["pr"], row.get("transcribed", False)
    for seed, workloads in row.get("paired", {}).items():
        for workload, entries in workloads.items():
            if workload not in WORKLOADS:
                _fail(pr, f"paired: unknown workload {workload!r}")
            for metric, entry in entries.items():
                where = f"paired {metric}@{workload} seed {seed}"
                if metric not in GATE_METRICS:
                    _fail(pr, f"{where}: not a gate metric")
                for side in ("parent", "change"):
                    _check_side(pr, f"{where} {side}", entry.get(side), transcribed)
                pairs, wins = entry.get("pairs"), entry.get("wins")
                if not isinstance(pairs, int) or not (wins is None or 0 <= wins <= pairs):
                    _fail(pr, f"{where}: pairs {pairs!r}, wins {wins!r}")
    claim = row.get("claim")
    if claim is None:
        return
    workload, metric = claim["workload"], claim["metric"]
    for seed in SEEDS:
        entry = row.get("paired", {}).get(seed, {}).get(workload, {}).get(metric)
        if entry is None:
            _fail(pr, f"claim {metric}@{workload} has no pairs on seed {seed}")
        if transcribed:
            continue
        (q1, parent, q3), change = entry["parent"], entry["change"][1]
        gain = parent - change if _better(metric) == "lower" else change - parent
        if entry["pairs"] < MIN_PAIRS or entry["wins"] < MIN_WIN_SHARE * entry["pairs"]:
            _fail(pr, f"claim on seed {seed}: {entry['wins']} wins of {entry['pairs']} pairs")
        if not gain > q3 - q1:
            _fail(pr, f"claim on seed {seed}: a gain of {gain:.4g} is inside the parent's IQR")


def _check_baseline(row: Row) -> None:
    for workload, entries in row.get("baseline", {}).items():
        for metric, runs in entries.items():
            if workload not in WORKLOADS or metric not in GATE_METRICS:
                _fail(row["pr"], f"baseline: unknown {metric}@{workload}")
            if not runs or not all(isinstance(v, (int, float)) for v in runs):
                _fail(row["pr"], f"baseline {metric}@{workload}: {runs!r}")


def _check_exact(row: Row, previous: Row | None) -> None:
    pr, exact = row["pr"], row.get("exact")
    if exact is None:
        return
    for key in ("sizes", "seed", "rows"):
        if key not in exact:
            _fail(pr, f"exact: missing {key!r}")
    for python, rows in exact["rows"].items():
        if not re.fullmatch(r"\d+\.\d+", python):
            _fail(pr, f"exact: {python!r} is not a Python minor version")
        for workload, values in rows.items():
            if workload not in WORKLOADS:
                _fail(pr, f"exact: unknown workload {workload!r}")
            for metric, value in values.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    _fail(pr, f"exact {metric}@{workload}: {value!r} is not a number")
    moved = row.get("moved", {})
    for workload, values in moved.items():
        for metric, (_, change) in values.items():
            taken = [rows.get(workload, {}).get(metric) for rows in exact["rows"].values()]
            if change not in taken:
                _fail(pr, f"moved {metric}@{workload}: {change!r} is not its exact row")
    if previous is not None:
        for python, rows in exact["rows"].items():
            before = previous["exact"]["rows"].get(python, {})
            for workload, values in rows.items():
                for metric, value in values.items():
                    old = before.get(workload, {}).get(metric)
                    if old is not None and old != value and metric not in moved.get(workload, {}):
                        _fail(pr, f"exact {metric}@{workload} moved {old!r} -> {value!r} unnamed")
    for values in moved.values():
        for metric in values:
            if metric not in row["why"]:
                _fail(pr, f"why does not name the moved exact row {metric}")


def _comparable(row: Row, exact: dict[str, Any]) -> bool:
    """Whether *row* has exact rows taken like *exact* (sizes, seed and,
    when *exact* names one, Python minor version)."""
    mine = row.get("exact")
    if mine is None or (mine["sizes"], mine["seed"]) != (exact["sizes"], exact["seed"]):
        return False
    return exact.get("python") is None or exact["python"] in mine["rows"]


def validate(rows: list[Row]) -> None:
    seen: list[Row] = []
    for row in rows:
        pr = row["pr"]
        for key in ("title", "why"):
            if not isinstance(row.get(key), str) or not row[key]:
                _fail(pr, f"{key} must be a non-empty string")
        held = [key for key in ("paired", "exact", "baseline", "claim") if row.get(key)]
        if not row.get("measured", True) and held:
            _fail(pr, f"a row that measured nothing holds {held}")
        if row.get("measured", True) and not held:
            _fail(pr, 'a measured row holds no measurement (else say "measured": false)')
        _check_paired(row)
        _check_baseline(row)
        exact = row.get("exact")
        previous = None
        if exact is not None:
            earlier = [r for r in seen if _comparable(r, exact)]
            # Only a row of the PR before can tell which rows this one moved.
            if earlier and earlier[-1]["pr"] == pr - 1:
                previous = earlier[-1]
        _check_exact(row, previous)
        seen.append(row)


# -- rendering -------------------------------------------------------------------


def _pct(parent: float, change: float) -> str:
    return f"{(change / parent - 1) * 100:+.1f}%" if parent else "-"


def _claim_cell(row: Row, seed: str) -> str:
    claim = row.get("claim")
    if claim is None:
        return "–"
    entry = row["paired"][seed][claim["workload"]][claim["metric"]]
    parent, change = entry["parent"][1], entry["change"][1]
    wins = "" if entry.get("wins") is None else f", {entry['wins']}/{entry['pairs']}"
    return f"{parent:.4g} → {change:.4g} ({_pct(parent, change)}{wins})"


def render(rows: list[Row]) -> str:
    lines = [
        "# Perf trajectory",
        "",
        "Rendered by `python3 benchmarks/trajectory.py --write` from",
        "`benchmarks/trajectory/PR<N>.json`; do not edit by hand.  Walls are",
        "calibrated seconds of the perf ledger (`ledger/README.md`), medians over",
        "alternating parent/change pairs; *transcribed* rows were copied from",
        "CHANGES.md, not re-measured.",
        "",
        "| PR | title | claim | seed 11 | seed 29 | exact rows | source |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        claim = row.get("claim")
        claimed = "–" if claim is None else f"`{claim['metric']}`@`{claim['workload']}`"
        exact = row.get("exact")
        exact_cell = "–"
        if exact is not None:
            counts = {
                python: sum(len(values) for values in by_workload.values())
                for python, by_workload in exact["rows"].items()
            }
            taken = ", ".join(f"{count} on {python}" for python, count in counts.items())
            exact_cell = f"{taken} ({exact['sizes']}, seed {exact['seed']})"
        if not row.get("measured", True):
            source = "not measured"
        elif row.get("transcribed"):
            source = "transcribed"
        else:
            source = "measured"
        lines.append(
            f"| {row['pr']} | {row['title']} | {claimed} | {_claim_cell(row, '11')} | "
            f"{_claim_cell(row, '29')} | {exact_cell} | {source} |"
        )
    for row in rows:
        if not (row.get("paired") or row.get("moved") or row.get("baseline")):
            continue
        lines += ["", f"## PR {row['pr']}: {row['title']}", "", row["why"]]
        baseline = row.get("baseline", {})
        if baseline:
            lines += ["", "| workload | " + " | ".join(f"`{m}`" for m in GATE_METRICS) + " |"]
            lines.append("|---" * (len(GATE_METRICS) + 1) + "|")
            for workload, entries in baseline.items():
                cells = [" / ".join(f"{v:.4g}" for v in entries[m]) for m in GATE_METRICS]
                lines.append(f"| {workload} | " + " | ".join(cells) + " |")
        for seed, workloads in sorted(row.get("paired", {}).items()):
            lines += [
                "",
                f"Seed {seed} (parent → change, median [q1–q3]):",
                "",
                "| workload | metric | parent | change | Δ | wins / pairs |",
                "|---|---|---|---|---|---|",
            ]
            for workload, entries in workloads.items():
                for metric, entry in entries.items():
                    parent, change = entry["parent"], entry["change"]
                    wins = "–" if entry.get("wins") is None else f"{entry['wins']}/{entry['pairs']}"
                    lines.append(
                        f"| {workload} | `{metric}` | {_quartiles(parent)} | "
                        f"{_quartiles(change)} | {_pct(parent[1], change[1])} | {wins} |"
                    )
        moved = row.get("moved", {})
        if moved:
            lines += ["", "Exact rows moved (parent → change):", ""]
            lines += ["| workload | row | parent | change |", "|---|---|---|---|"]
            for workload, values in moved.items():
                for metric, (parent, change) in values.items():
                    lines.append(f"| {workload} | `{metric}` | {parent:.10g} | {change:.10g} |")
    return "\n".join(lines) + "\n"


def _quartiles(side: list) -> str:
    q1, median, q3 = side
    if q1 is None:
        return f"{median:.4g}"
    return f"{median:.4g} [{q1:.4g}–{q3:.4g}]"


# -- the ledger's traced runs ---------------------------------------------------


def exact_rows(out_dir: str) -> dict[str, Any]:
    """The exact rows of the traced runs ``ledger/run.py`` left in
    *out_dir*, with the sizes and seed they share."""
    sys.path.insert(0, os.path.join(REPO, "ledger"))
    import metrics as ledger_metrics  # the ledger's own exactness rules

    taken: dict[str, Any] = {"sizes": None, "seed": None, "python": PYTHON, "rows": {}}
    for workload in WORKLOADS:
        path = os.path.join(out_dir, f"{workload}.traced.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if not result.get("correct"):
            raise TrajectoryError(f"{path}: the traced run failed: {result.get('failures')}")
        for key in ("sizes", "seed"):
            if taken[key] not in (None, result[key]):
                raise TrajectoryError(f"{path}: {key} {result[key]!r}, not {taken[key]!r}")
            taken[key] = result[key]
        values = dict(result["exact"])
        for metric, entry in result["metrics"].items():
            # host.* rows are exact about the machine, not the program.
            if metric.startswith("host.") or not ledger_metrics.is_exact(workload, metric):
                continue
            if entry.get("value") is None:
                continue
            if values.setdefault(metric, entry["value"]) != entry["value"]:
                raise TrajectoryError(f"{path}: {metric} disagrees with itself")
        taken["rows"][workload] = dict(sorted(values.items()))
    if not taken["rows"]:
        raise TrajectoryError(f"{out_dir}: no <workload>.traced.json")
    return taken


def _differs(committed: float, fresh: float) -> bool:
    both_nan = isinstance(committed, float) and isinstance(fresh, float) and (
        math.isnan(committed) and math.isnan(fresh)
    )
    return committed != fresh and not both_nan


def check(rows: list[Row], out_dir: str) -> list[str]:
    fresh = exact_rows(out_dir)
    committed = [row for row in rows if _comparable(row, fresh)]
    if not committed:
        return [
            f"no committed row at sizes {fresh['sizes']}, seed {fresh['seed']}, "
            f"Python {PYTHON}"
        ]
    newest = committed[-1]
    problems = [
        f"{workload}: no traced run in {out_dir}"
        for workload in newest["exact"]["rows"][PYTHON]
        if workload not in fresh["rows"]
    ]
    for workload, values in fresh["rows"].items():
        before = newest["exact"]["rows"][PYTHON].get(workload)
        if before is None:
            problems.append(f"{workload}: PR{newest['pr']} has no exact rows for it")
            continue
        for metric in sorted(set(before) | set(values)):
            if metric not in before or metric not in values:
                problems.append(f"{metric}@{workload}: on one side only (PR{newest['pr']})")
            elif _differs(before[metric], values[metric]):
                problems.append(
                    f"{metric}@{workload} moved: PR{newest['pr']} has {before[metric]!r}, "
                    f"this tree {values[metric]!r}"
                )
    latest = [row for row in rows if row.get("exact")][-1]
    if problems and latest["pr"] > newest["pr"]:
        # The row compared against is not the newest measurement: every
        # PR since may have moved these rows, not only the tree under test.
        taken = latest["exact"]
        how = "with --smoke" if taken["sizes"] == "smoke" else f"at {taken['sizes']} sizes"
        problems.insert(
            0,
            f"PR{newest['pr']} is the newest row at sizes {fresh['sizes']}, seed "
            f"{fresh['seed']}, Python {PYTHON}; later rows (the newest, PR{latest['pr']}, "
            f"at sizes {taken['sizes']}, seed {taken['seed']}, Python "
            f"{'/'.join(taken['rows'])}) were taken at other sizes, so a row may have "
            f"moved in any PR since PR{newest['pr']}: take the traced runs {how} to "
            f"check against PR{latest['pr']}",
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="re-render TRAJECTORY.md")
    parser.add_argument("--record", metavar="DIR", help="print the exact rows of DIR's traced runs")
    parser.add_argument("--check", metavar="DIR", help="DIR's traced runs vs the newest row")
    args = parser.parse_args(argv)
    try:
        rows = load_rows()
        validate(rows)
        if args.record:
            print(json.dumps(exact_rows(args.record), indent=1, sort_keys=True))
            return 0
        if args.check:
            problems = check(rows, args.check)
            for problem in problems:
                print(f"trajectory: {problem}")
            if problems:
                print("trajectory: an exact row that moves needs a new row whose why names it")
                return 1
            print(f"trajectory: every exact row equals the newest committed row ({args.check})")
            return 0
    except TrajectoryError as error:
        print(f"trajectory: {error}", file=sys.stderr)
        return 1
    text = render(rows)
    if args.write:
        with open(RENDERED, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {os.path.relpath(RENDERED, REPO)} ({len(rows)} rows)")
        return 0
    with open(RENDERED, encoding="utf-8") as handle:
        if handle.read() != text:
            print("trajectory: TRAJECTORY.md is stale; run with --write", file=sys.stderr)
            return 1
    print(f"trajectory: {len(rows)} rows valid, TRAJECTORY.md current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
