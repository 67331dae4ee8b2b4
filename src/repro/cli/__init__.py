"""Command-line interface: ``python -m repro <command>``.

This package holds the command table (:data:`COMMANDS`), :func:`main`
and the helpers two or more command modules share.  A command's options
and its body live in its own module, imported only when that command is
parsed.  ``run``, ``compare``, ``bench`` and ``serve`` accept ``--trace
PATH`` to record a ``repro-trace/v1`` JSONL execution trace (see
``docs/observability.md``), which ``repro trace`` then reads.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import TYPE_CHECKING, Iterator

from repro.errors import (
    CheckpointError,
    ReproError,
    ServeError,
    ShardError,
    TaskFailedError,
    WorkflowAbortedError,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.rdf.graph import Graph

#: command -> (its module under ``repro.cli``, its one-line help), in
#: ``repro --help`` order.  The module defines ``declare_<command>``.
COMMANDS = {
    "run": ("query", "execute a query on one engine"),
    "compare": ("query", "run a query on all four engines"),
    "explain": ("query", "show decomposition, MR plan, and priced candidates"),
    "bench": ("bench", "regenerate a paper table/figure"),
    "serve": ("serve", "simulate the concurrent query service on a seeded workload"),
    "metrics": ("telemetry", "inspect or re-export a repro-metrics/v1 snapshot"),
    "catalog": ("data", "list the workload queries"),
    "generate": ("data", "write a synthetic dataset"),
    "stats": ("data", "profile a dataset"),
    "trace": ("telemetry", "inspect a recorded execution trace"),
}

DEFAULT_PRESETS = {"bsbm": "500k", "chem": "paper", "pubmed": "paper"}


class _BadArguments(ReproError):
    """A ``ReproError`` raised inside :func:`usage`."""


#: Exit 2: a bad command line, or a typed failure scripts tell apart from
#: an ordinary error ("run aborted", with or without recovery; "bad
#: ledger, chaos or workload spec", "engine cannot shard").  Every other
#: error is exit 1.
_EXIT_2 = (
    _BadArguments,
    TaskFailedError,
    WorkflowAbortedError,
    CheckpointError,
    ServeError,
    ShardError,
)


@contextmanager
def usage() -> Iterator[None]:
    """Marks the wrapped steps as argument checks: a ``ReproError`` they
    raise is a usage error, which :func:`main` reports as exit 2."""
    try:
        yield
    except ReproError as error:
        raise _BadArguments(error) from error


def add_trace_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a repro-trace/v1 JSONL execution trace here "
        "(inspect with 'repro trace')",
    )


def add_representation_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--representation",
        default=None,
        metavar="MODE",
        help="NTGA intermediate representation: factorized (default), "
        "flat, or auto (cost-based choice per plan)",
    )


def load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "data", None):
        from repro.rdf import ntriples

        with open(args.data, encoding="utf-8") as handle:
            return ntriples.parse_graph(handle)
    from repro.datasets import generate as generate_dataset

    return generate_dataset(args.dataset, args.preset or DEFAULT_PRESETS[args.dataset])


@contextmanager
def tracing_to(path: str | None) -> Iterator[None]:
    """Record a ``repro-trace/v1`` trace of the wrapped work to *path*
    (no-op when *path* is None)."""
    if path is None:
        yield
        return
    from repro import obs
    from repro.obs.sink import write_trace

    with obs.tracing() as recorder:
        yield
    write_trace(recorder, path)
    print(f"wrote trace {path}", file=sys.stderr)


def emit(text: str, path: str | None) -> None:
    """Write *text* to *path* and say so, or print it when *path* is None."""
    if path is None:
        print(text, end="")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")


def render_snapshot(snapshot: dict, fmt: str) -> str:
    """A ``repro-metrics/v1`` snapshot as Prometheus text exposition or
    as JSON in the byte format of every report."""
    if fmt == "prometheus":
        from repro.obs.metrics import render_prometheus

        return render_prometheus(snapshot)
    import json

    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def report_mode(args: argparse.Namespace, kind, produce) -> int:
    """The one driver behind every report-producing mode: trace →
    produce → render → ``--output`` → ``--golden`` → invariants → exit
    code.  The golden is diffed against the report just produced, so a
    mode runs its experiment once."""
    from repro.report import check_golden, load_report, write_report

    if args.golden:
        # Before the experiment: a malformed or foreign golden is a
        # usage error, not something to find out after a seven-second soak.
        with usage():
            load_report(args.golden, kind.schema)
    with tracing_to(args.trace):
        report = produce()
    print(kind.render(report))
    if args.output:
        print(f"wrote {write_report(report, args.output)}")
    if args.golden:
        problems = check_golden(args.golden, report)
        for problem in problems:
            print(f"{kind.label} mismatch: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{kind.label} ok: {args.golden}")
    violations = kind.violations(report) if kind.violations is not None else []
    for violation in violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


class _Command(argparse.ArgumentParser):
    """A command's parser.  The first time the command is parsed it
    imports the command's module and runs its ``declare_<command>``: a
    command loads no other command's module or option registries."""

    def __init__(self, *args, command: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._command = command

    def declare(self) -> None:
        """Add the command's options, once."""
        if self._command is not None:
            command, self._command = self._command, None
            module = import_module(f"{__name__}.{COMMANDS[command][0]}")
            getattr(module, f"declare_{command}")(self)

    def parse_known_args(self, args=None, namespace=None):
        self.declare()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAPIDAnalytics reproduction (EDBT 2016) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for command, (_, help_text) in COMMANDS.items():
        sub.add_parser(command, help=help_text, command=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        # The one place a failure is reported: one line, then the exit
        # code its kind earns.
        print(f"error: {error}", file=sys.stderr)
        return 2 if isinstance(error, _EXIT_2) else 1
