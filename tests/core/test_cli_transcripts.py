"""Full-transcript differential for the ``repro`` command line.

``cli_transcripts.json`` pins, for every case below, what a user of
``repro`` sees: stdout, stderr and the exit code of ``main(argv)`` run
in one scratch directory with ``COLUMNS=80``.  The cases cover the
``--help`` of ``repro``, of every command and of every subcommand; at
least one invocation of each way a command refuses its arguments (one
``error:`` line, exit 2) or fails (exit 1); the six command shapes of
the ledger's ``cold-cli`` workload at ``tiny``; and the paths that write
to ``--output`` or stdout.  A CLI refactor leaves the file untouched.

Help text and argparse's own usage errors are formatted by the running
interpreter's ``argparse``, so those cases are compared only on the
Python minor version the file was captured with; every other case is
compared everywhere.

Regenerate (only when a behaviour change is intended, and say so)::

    PYTHONPATH=src python tests/core/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")

_TINY = ["--preset", "tiny"]
_RUN = ["run", "MG1", *_TINY]
_BENCH = ["bench", "table3-bsbm-tiny"]
_SERVE = ["serve", "--workload", "seeds=1,clients=2,mix=chem-overlap,requests=6"]
_COMMANDS = (
    "run compare explain bench serve metrics catalog generate stats trace".split()
)

#: Files the cases read, written into the scratch directory first.
FILES = {
    "notjson.txt": "not json\n",
    "list.json": "[1, 2]\n",
    "wrong.json": '{"schema": "repro-other/v1"}\n',
    "metrics-schema.json": '{"schema": "repro-metrics/v1"}\n',
}

#: ``(name, argv)``, run in this order in one directory.  A name starting
#: with ``help`` or ``usage`` is output that ``argparse`` formats.
CASES: list[tuple[str, list[str]]] = [
    ("help", ["--help"]),
    *[(f"help {command}", [command, "--help"]) for command in _COMMANDS],
    *[
        (f"help {command} {sub}", [command, sub, "--help"])
        for command, subs in (("trace", "summary tree export"), ("metrics", "summary export"))
        for sub in subs.split()
    ],
    # argparse refuses the command line (exit 2).
    ("usage no command", []),
    ("usage unknown command", ["nosuch"]),
    ("usage run without query", ["run"]),
    ("usage run bad engine", ["run", "MG1", "--engine", "nosuch"]),
    ("usage run bad limit", ["run", "MG1", "--limit", "x"]),
    ("usage run negative limit", ["run", "MG1", "--preset", "tiny", "--limit", "-1"]),
    ("usage trace without subcommand", ["trace"]),
    ("usage trace tree bad depth", ["trace", "tree", "t.jsonl", "--depth", "x"]),
    ("usage metrics export without snapshot", ["metrics", "export"]),
    ("usage generate bad dataset", ["generate", "nosuch", "x.nt"]),
    ("usage stats bad dataset", ["stats", "--dataset", "nosuch"]),
    # A command refuses its arguments: one ``error:`` line, exit 2.
    ("run bad planner", [*_RUN, "--planner", "bogus"]),
    ("run bad representation", [*_RUN, "--representation", "x"]),
    ("run bad shards", [*_RUN, "--shards", "x"]),
    ("run bad faults", [*_RUN, "--faults", "x"]),
    ("run hive sharded", [*_RUN, "--engine", "hive-naive", "--shards", "2"]),
    ("compare bad planner", ["compare", "MG1", "--preset", "tiny", "--planner", "bogus"]),
    ("explain bad shards", ["explain", "MG1", "--preset", "tiny", "--shards", "0"]),
    ("explain bad planner", ["explain", "MG1", "--preset", "tiny", "--planner", "x"]),
    ("bench unknown experiment", ["bench", "nosuch"]),
    ("bench bad representation", [*_BENCH, "--representation", "x"]),
    ("bench two modes", [*_BENCH, "--faults", "7,0.05", "--chaos", "seeds=1,rate=0.1"]),
    ("bench representation with mode", ["bench", "mg", "--planner-ab", "--representation", "flat"]),
    ("bench output without mode", [*_BENCH, "--output", "x.json"]),
    ("bench golden without mode", [*_BENCH, "--golden", "x.json"]),
    ("bench faults unknown experiment", ["bench", "nosuch", "--faults", "7,0.05"]),
    ("bench faults bad spec", [*_BENCH, "--faults", "x"]),
    ("bench chaos unknown experiment", ["bench", "nosuch", "--chaos", "seeds=1,rate=0.1"]),
    ("bench chaos bad spec", [*_BENCH, "--chaos", "x"]),
    ("bench planner-ab unknown query", ["bench", "MG1,NOPE", "--planner-ab"]),
    ("bench calibration no query", ["bench", ",", "--calibration"]),
    ("bench shards repeated query", ["bench", "MG1,MG1", "--shards", "2"]),
    ("bench shards bad spec", ["bench", "mg", "--shards", "x"]),
    ("bench golden not json", [*_BENCH, "--faults", "7,0.05", "--golden", "notjson.txt"]),
    (
        "bench golden other schema",
        [*_BENCH, "--faults", "7,0.05", "--golden", "metrics-schema.json"],
    ),
    ("serve bad workload", ["serve", "--workload", "x"]),
    ("serve bad slo", [*_SERVE, "--slo", "x"]),
    ("serve bad faults", [*_SERVE, "--faults", "x"]),
    ("serve metrics with faults", [*_SERVE, "--faults", "1,0.1", "--metrics", "m.json"]),
    ("serve bad resilience", [*_SERVE, "--faults", "1,0.1", "--resilience", "x"]),
    ("serve resilience without faults", [*_SERVE, "--resilience", "default"]),
    ("serve bad metrics path", [*_SERVE, "--metrics", "m.csv"]),
    ("serve golden other schema", [*_SERVE, "--golden", "wrong.json"]),
    # A workflow that exhausts its recovery budget is exit 2, any other
    # failure exit 1.
    ("run bad recover", [*_RUN, "--faults", "3,0.9", "--recover", "0"]),
    ("run recovery exhausted", [*_RUN, "--faults", "3,0.9", "--recover", "1"]),
    ("run aborted", [*_RUN, "--faults", "3,0.9"]),
    ("run missing query file", ["run", "nosuch.rq", "--preset", "tiny"]),
    ("trace missing file", ["trace", "summary", "missing.jsonl"]),
    ("trace not a trace", ["trace", "tree", "notjson.txt"]),
    ("metrics wrong schema", ["metrics", "summary", "wrong.json"]),
    ("metrics not json", ["metrics", "summary", "notjson.txt"]),
    ("metrics not an object", ["metrics", "export", "list.json"]),
    # The ledger's cold-cli shapes at tiny.
    ("generate", ["generate", "bsbm", "data.nt", "--preset", "tiny"]),
    ("catalog", ["catalog"]),
    ("explain", ["explain", "MG3", "--preset", "tiny"]),
    ("run ntga", ["run", "MG1", "--preset", "tiny"]),
    ("run hive", ["run", "MG1", "--preset", "tiny", "--engine", "hive-naive"]),
    ("run sharded", ["run", "MG1", "--preset", "tiny", "--shards", "4,hash"]),
    ("run ntriples", ["run", "G3", "--data", "data.nt"]),
    # Output to a file or to stdout.
    ("run csv traced", ["run", "G3", *_TINY, "--format", "csv", "--trace", "t.jsonl"]),
    ("trace export to file", ["trace", "export", "t.jsonl", "-o", "t.json", "--check"]),
    ("explain run", ["explain", "MG3", *_TINY, "--planner", "cost", "--run", "--shards", "2"]),
    (
        "explain run rapid-plus",
        ["explain", "MG3", *_TINY, "--engine", "rapid-plus", "--planner", "cost", "--run"],
    ),
    ("explain run json", ["explain", "MG1", "--preset", "tiny", "--run", "--json"]),
    ("serve metrics", [*_SERVE, "--metrics", "m.json", "--output", "s.json"]),
    ("serve metrics prometheus", [*_SERVE, "--metrics", "m.prom"]),
    ("metrics summary", ["metrics", "summary", "m.json"]),
    ("metrics export stdout", ["metrics", "export", "m.json", "--check"]),
    ("metrics export json to file", [
        "metrics", "export", "m.json", "--format", "json", "-o", "m2.json",
    ]),
]


def _argparse_formatted(name: str) -> bool:
    return name.split()[0] in ("help", "usage")


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code or 0
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def capture_all() -> dict:
    """Every case's transcript, run in a fresh scratch directory."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            cases = {name: _invoke(argv) for name, argv in CASES}
            cases["metrics export json to file"]["file"] = Path("m2.json").read_text()
        finally:
            os.chdir(previous)
    python = "{}.{}".format(*sys.version_info[:2])
    return {"python": python, "cases": cases}


@pytest.fixture(scope="module")
def transcripts():
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return capture_all()
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


EXPECTED = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_the_cases_are_the_pinned_cases():
    assert [name for name, _ in CASES] == list(EXPECTED["cases"])


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_transcript(name, transcripts):
    if _argparse_formatted(name) and transcripts["python"] != EXPECTED["python"]:
        pytest.skip(f"argparse output captured on Python {EXPECTED['python']}")
    assert transcripts["cases"][name] == EXPECTED["cases"][name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    captured = capture_all()
    TRANSCRIPTS.write_text(json.dumps(captured, indent=1) + "\n")
    print(f"wrote {TRANSCRIPTS} ({len(captured['cases'])} cases)")
