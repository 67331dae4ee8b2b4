"""The one report harness (``repro.report``), over every registered kind.

Each case below names a kind's producer, the cheapest arguments that
yield a real report, and the CLI mode that prints it.  The library
cases check that a written report round-trips, that tampering is
reported by run key and field, and that a golden check against a fresh
report never re-runs the experiment; the CLI cases check that
``--golden`` runs the experiment exactly once and that a malformed or
foreign golden is one ``error:`` line and exit 2 on every mode.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.bench.chaos import ChaosSpec
from repro.cli import main
from repro.mapreduce.faults import FaultPlan
from repro.report import (
    KIND_MODULES,
    check_golden,
    diff_reports,
    load_report,
    write_report,
)
from repro.serve.resilience import ResilienceConfig
from repro.serve.workload import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDENS = REPO_ROOT / "benchmarks" / "golden"

_SERVE = "seeds=1,clients=2,mix=chem-overlap,requests=6"


@dataclass(frozen=True)
class Case:
    schema: str
    producer: str
    args: tuple
    #: The CLI mode producing this schema (None: no mode of its own).
    argv: tuple[str, ...] | None
    #: A run field to tamper with, as a path below the run.
    run_field: tuple[str, ...]
    #: A committed golden of *another* mode's schema.
    foreign: str = "planner-ab-mg.json"
    #: Names a second case of one kind (another CLI line of the same schema).
    variant: str = ""

    @property
    def id(self) -> str:
        return f"{self.variant}-{self.producer}" if self.variant else self.producer

    @property
    def module(self):
        return importlib.import_module(KIND_MODULES[self.schema])

    @property
    def kind(self):
        return self.module.KIND


_CHAOS = ChaosSpec.from_spec("seeds=1,rate=0.1")

CASES = {
    case.id: case
    for case in (
        Case(
            "repro-planner-ab/v1", "planner_ab_report", (["MG1"],),
            ("bench", "MG1", "--planner-ab"), ("chosen",), foreign="shard-ab-mg-4.json",
        ),
        Case(
            "repro-shard-ab/v1", "shard_ab_report", (["MG1"], 2, ("hash",)),
            ("bench", "MG1", "--shards", "2,hash"), ("strategies", "hash", "cycles"),
        ),
        Case(
            "repro-calibration/v1", "calibration_report", (["MG1"],),
            ("bench", "MG1", "--calibration"), ("verdict",),
        ),
        # The fault-injection kind, from both of its command lines:
        # --chaos (one plan per seed, with recovery) and --faults (one
        # plan, no recovery).
        Case(
            "repro-chaos-soak/v2", "chaos_soak_report",
            ("table3-bsbm-tiny", _CHAOS.plans(), _CHAOS.policy()),
            ("bench", "table3-bsbm-tiny", "--chaos", "seeds=1,rate=0.1"),
            ("cost_seconds",),
        ),
        Case(
            "repro-chaos-soak/v2", "chaos_soak_report",
            ("table3-bsbm-tiny", [FaultPlan.from_spec("7,0.05")]),
            ("bench", "table3-bsbm-tiny", "--faults", "7,0.05"), ("rows",),
            variant="faults",
        ),
        Case(
            "repro-serve-workload/v2", "serve_workload_report",
            (WorkloadSpec.from_spec(_SERVE),),
            ("serve", "--workload", _SERVE), ("served_cost_seconds",),
            foreign="serve-resilience-chem.json",
        ),
        Case(
            "repro-serve-resilience/v1", "serve_resilience_report",
            (
                WorkloadSpec.from_spec(_SERVE),
                FaultPlan.from_spec("11,0.02,0,0,1"),
                ResilienceConfig(),
            ),
            ("serve", "--workload", _SERVE, "--faults", "11,0.02,0,0,1"),
            ("on", "availability"), foreign="serve-chem-overlap.json",
        ),
        Case(
            "repro-golden/v1", "capture_dataset",
            ("bsbm", "tiny", ("MG2",), ("rapid-analytics", "hive-naive")),
            None, ("cost_seconds",),
        ),
    )
}

ALL = pytest.mark.parametrize("case", CASES.values(), ids=lambda c: c.id)
MODES = pytest.mark.parametrize(
    "case", [c for c in CASES.values() if c.argv], ids=lambda c: c.id
)


def test_every_registered_kind_has_a_case():
    assert {case.schema for case in CASES.values()} == set(KIND_MODULES)
    for case in CASES.values():
        assert case.kind.schema == case.schema


@functools.lru_cache(maxsize=None)
def _produced(case_id: str) -> dict[str, Any]:
    case = CASES[case_id]
    return getattr(case.module, case.producer)(*case.args)


def fresh_report(case: Case) -> dict[str, Any]:
    """One real report per case for the whole module, copied per use."""
    return copy.deepcopy(_produced(case.id))


class Counting:
    """Stands in for a producer: counts calls, hands back a canned report."""

    def __init__(self, report: dict[str, Any]):
        self.report, self.calls = report, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return copy.deepcopy(self.report)


def stub_producer(monkeypatch, case: Case, report=None) -> Counting:
    stub = Counting(fresh_report(case) if report is None else report)
    monkeypatch.setattr(case.module, case.producer, stub)
    return stub


def dig(run: dict[str, Any], path: tuple[str, ...]) -> Any:
    for name in path:
        run = run[name]
    return run


def run_label(case: Case, run: dict[str, Any]) -> str:
    return " ".join(f"{name}={run[name]}" for name in case.kind.key)


# ---------------------------------------------------------------------------
# Library: write -> check round trip, drift, and who calls the producer
# ---------------------------------------------------------------------------


@ALL
def test_write_then_check_round_trips(case, tmp_path):
    """Re-running a report's own parameters reproduces it."""
    report = fresh_report(case)
    path = write_report(report, tmp_path / "report.json")
    assert json.loads(path.read_text()) == report
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert check_golden(path) == []


@ALL
def test_tampered_run_field_is_named(case, tmp_path):
    report, tampered = fresh_report(case), fresh_report(case)
    target = tampered["runs"][0]
    label = run_label(case, target)
    dig(target, case.run_field[:-1])[case.run_field[-1]] = "tampered"
    path = write_report(tampered, tmp_path / "tampered.json")
    assert check_golden(path, report) == [
        f"{label}: {'.'.join(case.run_field)} differs: golden='tampered' "
        f"fresh={dig(report['runs'][0], case.run_field)!r}"
    ]


@pytest.mark.parametrize(
    "case", [c for c in CASES.values() if c.kind.tail], ids=lambda c: c.id
)
def test_tampered_tail_field_is_named(case, tmp_path):
    report, tampered = fresh_report(case), fresh_report(case)
    name = case.kind.tail[-1]
    tampered[name] = "tampered"
    path = write_report(tampered, tmp_path / "tampered.json")
    assert check_golden(path, report) == [
        f"{name} differs: golden='tampered' fresh={report[name]!r}"
    ]


@ALL
def test_dropped_run_is_named(case, tmp_path):
    report, tampered = fresh_report(case), fresh_report(case)
    dropped = tampered["runs"].pop(0)
    label = run_label(case, dropped)
    path = write_report(tampered, tmp_path / "tampered.json")
    assert f"{label}: present only in fresh" in check_golden(path, report)
    assert f"{label}: present only in golden" in diff_reports(
        case.kind, report, tampered
    )


@ALL
def test_check_against_fresh_never_calls_the_producer(case, tmp_path, monkeypatch):
    report = fresh_report(case)
    path = write_report(report, tmp_path / "report.json")
    stub = stub_producer(monkeypatch, case)
    assert check_golden(path, report) == []
    assert stub.calls == 0
    # ... and without one, re-runs the golden's own parameters, once.
    assert check_golden(path) == []
    assert stub.calls == 1


# ---------------------------------------------------------------------------
# CLI: one experiment per invocation, malformed goldens are diagnostics
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@MODES
def test_cli_golden_runs_the_experiment_once(case, tmp_path, monkeypatch, capsys):
    path = write_report(fresh_report(case), tmp_path / "golden.json")
    stub = stub_producer(monkeypatch, case)
    code, out, err = run_cli(capsys, *case.argv, "--golden", path)
    assert (code, stub.calls) == (0, 1), err
    assert out.endswith(f"{case.kind.label} ok: {path}\n")


def test_chaos_smoke_command_line_soaks_once(monkeypatch, capsys):
    """The CI chaos smoke, with the soak stubbed by its own golden."""
    golden = GOLDENS / "chaos-figure8a.json"
    stub = stub_producer(
        monkeypatch, CASES["chaos_soak_report"], json.loads(golden.read_text())
    )
    code, out, _ = run_cli(
        capsys, "bench", "figure8a", "--chaos", "seeds=3,rate=0.05", "--golden", golden
    )
    assert (code, stub.calls) == (0, 1)
    assert f"chaos golden ok: {golden}" in out


def _malformed(tmp_path: Path, case: Case) -> dict[str, Path]:
    files = {
        "not-json": tmp_path / "not.json",
        "empty-object": tmp_path / "empty.json",
        "no-parameters": tmp_path / "bare.json",
        "missing-file": tmp_path / "nonexistent.json",
    }
    files["not-json"].write_text("{truncated")
    files["empty-object"].write_text("{}")
    files["no-parameters"].write_text(json.dumps({"schema": case.schema}))
    files["foreign-kind"] = GOLDENS / case.foreign
    return files


@MODES
@pytest.mark.parametrize(
    "flavor",
    ["not-json", "empty-object", "no-parameters", "missing-file", "foreign-kind"],
)
def test_malformed_golden_is_one_line_and_exit_2(
    case, flavor, tmp_path, monkeypatch, capsys
):
    stub = stub_producer(monkeypatch, case)
    path = _malformed(tmp_path, case)[flavor]
    code, out, err = run_cli(capsys, *case.argv, "--golden", path)
    assert code == 2 and stub.calls == 0 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(path) in err
    if flavor == "foreign-kind":
        foreign = json.loads(path.read_text())["schema"]
        assert foreign in err and case.schema in err


def test_library_check_of_a_malformed_golden_is_a_typed_error(tmp_path):
    from repro.errors import ReproError

    case = CASES["planner_ab_report"]
    for flavor, path in _malformed(tmp_path, case).items():
        if flavor != "foreign-kind":
            with pytest.raises(ReproError, match=path.name):
                check_golden(path)
    with pytest.raises(ReproError, match="repro-shard-ab/v1.*repro-planner-ab/v1"):
        load_report(GOLDENS / case.foreign, case.schema)


@pytest.mark.parametrize(
    "flags",
    [
        ("--output", "x.json"),
        ("--golden", "/nonexistent.json"),
        ("--golden", "/nonexistent.json", "--output", "x.json"),
    ],
    ids=["output", "golden", "golden+output"],
)
def test_bench_without_a_report_mode_rejects_report_flags(
    flags, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "bench", "table3-bsbm-tiny", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def test_trace_is_honoured_under_faults_and_leaves_the_golden_alone(tmp_path, capsys):
    trace = tmp_path / "faults.trace.jsonl"
    golden = GOLDENS / "faults-table3-bsbm-tiny.json"
    output = tmp_path / "faults.json"
    code, out, err = run_cli(
        capsys, "bench", "table3-bsbm-tiny", "--faults", "7,0.05",
        "--trace", trace, "--output", output, "--golden", golden,
    )
    assert code == 0 and f"chaos golden ok: {golden}" in out
    assert f"wrote trace {trace}" in err
    assert json.loads(trace.read_text().splitlines()[0])["schema"] == "repro-trace/v1"
    # The single writer's byte format, pinned against a committed file.
    assert output.read_bytes() == golden.read_bytes()


# ---------------------------------------------------------------------------
# Start-up: each command loads only the modules it runs
# ---------------------------------------------------------------------------

#: ``import repro.cli``: the command table and the error types.
_CLI = frozenset("repro repro.lazy repro.errors repro.cli".split())
#: The query catalog.
_CATALOG = frozenset("repro.bench repro.bench.catalog".split())
#: What every query command runs: its command module, the catalog, the
#: engines facade, the SPARQL front end, the RDF model and the MapReduce
#: simulator.
_QUERY = _CLI | _CATALOG | frozenset(
    """
    repro.cli.query
    repro.ambient repro.core repro.core.engines repro.core.query_model
    repro.core.results repro.mapreduce repro.mapreduce.checkpoint
    repro.mapreduce.cost repro.mapreduce.counters repro.mapreduce.faults
    repro.mapreduce.hdfs repro.mapreduce.job repro.mapreduce.runner
    repro.obs repro.obs.model repro.rdf repro.rdf.graph repro.rdf.terms
    repro.rdf.triples repro.sparql repro.sparql.aggregates repro.sparql.ast
    repro.sparql.expressions repro.sparql.parser repro.sparql.tokenizer
    """.split()
)
#: The NTGA planner and physical operators (RAPIDAnalytics, RAPID+).
_NTGA = frozenset(
    """
    repro.ntga repro.ntga.composite repro.ntga.factorized repro.ntga.operators
    repro.ntga.overlap repro.ntga.physical repro.ntga.planner
    repro.ntga.triplegroup
    """.split()
)
#: Running an engine (answer modifiers come from the reference evaluator).
_ENGINE = frozenset(
    "repro.ntga.engine repro.core.reference repro.sparql.evaluator".split()
)
#: A generated BSBM graph.
_BSBM = frozenset(
    "repro.datasets repro.datasets.bsbm repro.datasets.seeds repro.rdf.namespaces".split()
)
_RUN = _QUERY | _NTGA | _ENGINE | _BSBM


@dataclass(frozen=True)
class Startup:
    argv: tuple[str, ...]
    #: Every ``repro`` module the command may load.
    pinned: frozenset[str]
    #: Packages or modules it must not load, whatever the pinned set says.
    kept_out: tuple[str, ...] = ()


#: One case per shape of the ledger's ``cold-cli`` commands, at ``tiny``, and
#: ``trace summary``.
STARTUPS = {
    "catalog": Startup(
        ("catalog",),
        _CLI | _CATALOG | frozenset(("repro.cli.data",)),
        ("repro.core", "repro.ntga", "repro.mapreduce", "repro.hive",
         "repro.shard", "repro.serve", "repro.plan"),
    ),
    "explain": Startup(
        ("explain", "MG3", "--preset", "tiny"),
        _QUERY | _NTGA | _BSBM | frozenset(
            """
            repro.core.explain repro.plan repro.plan.cardinality
            repro.plan.enumerator repro.rdf.stats
            """.split()
        ),
    ),
    "run-ntga": Startup(
        ("run", "MG1", "--preset", "tiny"),
        _RUN,
        ("repro.hive", "repro.shard", "repro.serve", "repro.plan",
         "repro.obs.metrics", "repro.bench.harness", "repro.core.explain",
         "repro.sparql.serializer"),
    ),
    "run-hive": Startup(
        ("run", "MG1", "--preset", "tiny", "--engine", "hive-naive"),
        _RUN | frozenset("repro.hive repro.hive.engine repro.hive.executor repro.hive.tables".split()),
        ("repro.shard", "repro.serve"),
    ),
    "run-sharded": Startup(
        ("run", "MG1", "--preset", "tiny", "--shards", "2,hash"),
        _RUN | frozenset("repro.shard repro.shard.execution repro.shard.partition".split()),
        ("repro.hive",),
    ),
    "run-ntriples": Startup(
        ("run", "G3", "--data", "{data}"),
        _QUERY | _NTGA | _ENGINE | frozenset(("repro.rdf.ntriples",)),
    ),
    # Reading a trace back needs no query catalog.
    "trace-summary": Startup(
        ("trace", "summary", "{trace}"),
        _CLI | frozenset(
            """
            repro.cli.telemetry repro.ambient repro.obs repro.obs.model
            repro.obs.sink repro.obs.summary
            """.split()
        ),
        ("repro.bench", "repro.core", "repro.mapreduce", "repro.ntga"),
    ),
}

_LOADED = (
    "import sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


@pytest.fixture(scope="module")
def startup_files(tmp_path_factory):
    """The N-Triples file and the trace the cases read."""
    folder = tmp_path_factory.mktemp("startup")
    data, trace = folder / "bsbm-tiny.nt", folder / "run.trace.jsonl"
    assert main(["generate", "bsbm", str(data), "--preset", "tiny"]) == 0
    assert main(["run", "G3", "--data", str(data), "--trace", str(trace)]) == 0
    return {"data": data, "trace": trace}


@pytest.mark.parametrize("name", sorted(STARTUPS))
def test_each_command_loads_only_what_it_runs(name, startup_files, capsys):
    startup = STARTUPS[name]
    argv = [arg.format(**startup_files) for arg in startup.argv]
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.splitlines()[-1].split())
    assert loaded - startup.pinned == set()
    assert not [
        module
        for module in loaded
        for out in startup.kept_out
        if module == out or module.startswith(out + ".")
    ]
    capsys.readouterr()
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
