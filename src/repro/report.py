"""The one report harness: write, load, diff and re-check ``repro-*/vN`` reports.

Every claim beyond the paper's own tables is the same experiment — run a
baseline and a variant on identical answers, emit a schema-tagged JSON
report, diff it against a committed golden.  That procedure lives here
once.  What is particular to a schema (which fields echo the parameters,
what keys a run, how to re-run it, which invariant it certifies) is one
:class:`ReportKind` declaration named ``KIND`` in the module that
produces the report; :data:`KIND_MODULES` maps each schema to that
module, imported only when a report of that schema is met.  DESIGN.md
§7.4 has the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import ReproError

Report = dict[str, Any]


def answers_digest(rows: Iterable[dict]) -> str:
    """Order-insensitive fingerprint of an answer multiset — what the A/B
    reports compare a variant's rows to its baseline's by (the
    order-*sensitive* :func:`repro.core.results.rows_digest` is a different
    fingerprint)."""
    canonical = sorted(
        ",".join(
            f"{variable.name}={term.n3()}"
            for variable, term in sorted(row.items(), key=lambda kv: kv[0].name)
        )
        for row in rows
    )
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ReportKind:
    """What the harness needs to know about one report schema."""

    schema: str
    #: Noun of the CLI's ``"<label> ok: <path>"`` / ``"<label> mismatch:"`` lines.
    label: str
    #: Top-level fields diffed before the runs: the parameter echo.  A
    #: file lacking one cannot be re-run and is rejected on load.
    head: tuple[str, ...]
    #: Fields of a ``runs`` entry that identify it.
    key: tuple[str, ...]
    #: Top-level fields diffed after the runs (summaries, verdicts).
    tail: tuple[str, ...]
    #: Produce a fresh report from a golden's own parameters.
    rerun: Callable[[Report], Report]
    #: Terminal view (None: no CLI mode prints this schema).
    render: Callable[[Report], str] | None = None
    #: One line per broken invariant of a fresh report (the CLI's
    #: ``INVARIANT VIOLATION`` exit 1); None when the schema certifies none.
    violations: Callable[[Report], list[str]] | None = None


#: schema -> module defining its ``KIND``.
KIND_MODULES = {
    "repro-planner-ab/v1": "repro.plan.ab",
    "repro-shard-ab/v1": "repro.shard.ab",
    "repro-calibration/v1": "repro.bench.calibration",
    "repro-chaos-soak/v2": "repro.bench.chaos",
    "repro-serve-workload/v2": "repro.serve.workload",
    "repro-serve-resilience/v1": "repro.serve.resilience",
    "repro-golden/v1": "repro.perf.goldens",
}


def write_report(report: Report, path: str | Path) -> Path:
    """The byte format of every committed report and golden."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path, schema: str | None = None) -> tuple[ReportKind, Report]:
    """Read a report file and resolve its kind.

    Raises a one-line :class:`ReproError` when the file is unreadable or
    not JSON, carries no known ``schema`` (or not *schema*, when one is
    required), or lacks a parameter field needed to re-run it.
    """
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ReproError(f"{path}: not a readable JSON report ({error})") from None
    found = report.get("schema") if isinstance(report, dict) else None
    if found not in KIND_MODULES or schema not in (None, found):
        raise ReproError(
            f"{path}: schema {found!r} is not accepted here "
            f"(accepted: {schema or ', '.join(KIND_MODULES)})"
        )
    kind = import_module(KIND_MODULES[found]).KIND
    missing = [name for name in kind.head if name not in report]
    if missing:
        raise ReproError(
            f"{path}: {found} report lacks {', '.join(missing)}, "
            "so it cannot be re-run or compared"
        )
    return kind, report


def diff_reports(kind: ReportKind, golden: Report, fresh: Report) -> list[str]:
    """Human-readable differences (empty = identical): head fields, then
    runs matched on ``kind.key``, then tail fields.  Nested objects are
    descended so a difference names the innermost field that moved."""
    problems: list[str] = []

    def diff(where: str, old: Any, new: Any) -> None:
        if isinstance(old, dict) and isinstance(new, dict):
            for name in sorted(old.keys() | new.keys()):
                diff(f"{where}.{name}", old.get(name), new.get(name))
        elif old != new:
            problems.append(f"{where} differs: golden={old!r} fresh={new!r}")

    for name in kind.head:
        diff(name, golden.get(name), fresh.get(name))

    def keyed(report: Report) -> dict[tuple, Report]:
        return {
            tuple(run.get(name) for name in kind.key): run
            for run in report.get("runs", [])
        }

    golden_runs, fresh_runs = keyed(golden), keyed(fresh)
    for key in sorted(golden_runs.keys() | fresh_runs.keys()):
        label = " ".join(f"{name}={value}" for name, value in zip(kind.key, key))
        old, new = golden_runs.get(key), fresh_runs.get(key)
        if old is None or new is None:
            problems.append(
                f"{label}: present only in {'fresh' if old is None else 'golden'}"
            )
            continue
        for name in sorted((old.keys() | new.keys()) - set(kind.key)):
            diff(f"{label}: {name}", old.get(name), new.get(name))
    for name in kind.tail:
        diff(name, golden.get(name), fresh.get(name))
    return problems


def check_golden(path: str | Path, fresh: Report | None = None) -> list[str]:
    """Check a committed report: its difference from *fresh* — or, when
    none is given, from a re-run of the golden's own parameters.  Empty
    list = the golden holds."""
    kind, golden = load_report(path)
    if fresh is None:
        fresh = kind.rerun(golden)
    return diff_reports(kind, golden, fresh)
