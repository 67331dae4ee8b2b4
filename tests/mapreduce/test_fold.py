"""The simulated clock adds its seconds in one order on every Python.

From 3.12 the builtin ``sum`` adds floats with compensated (Neumaier)
summation, so a cost summed with it depends on the interpreter.  Every
float sum on the simulated clock, and every float sum a committed report
prints, goes through ``cost.fold_seconds``, a plain left fold.  These
tests replace the builtin ``sum`` with a Neumaier sum -- what 3.12 does
-- and require every ``cost_seconds`` of the catalog on the paper's
engines, and every committed golden regenerated, to come out
bit-identical.
"""

from __future__ import annotations

import builtins
import json
from pathlib import Path

import pytest

from repro.bench.catalog import CATALOG, get_query
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.explain import explain
from repro.core.results import EngineConfig
from repro.datasets import generate
from repro.mapreduce.cost import fold_seconds
from repro.report import KIND_MODULES, load_report, write_report
from repro.serve.workload import WorkloadSpec, serve_workload_with_metrics

ROOT = Path(__file__).resolve().parents[2]

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum``, compensated over float inputs as on 3.12."""
    items = list(iterable)
    if not any(isinstance(item, float) for item in [start, *items]):
        return _builtin_sum(items, start)
    total, compensation = float(start), 0.0
    for item in items:
        added = total + item
        if abs(total) >= abs(item):
            compensation += (total - added) + item
        else:
            compensation += (item - added) + total
        total = added
    return total + compensation


def test_the_neumaier_sum_differs_from_a_left_fold():
    values = [0.1] * 10
    assert neumaier_sum(values) == 1.0
    assert fold_seconds(values) == 0.9999999999999999 == _builtin_sum(values)


@pytest.fixture(scope="module")
def graphs():
    return {dataset: generate(dataset, "tiny") for dataset in ("bsbm", "chem", "pubmed")}


def _costs(graphs) -> dict[tuple[str, str], float]:
    return {
        (qid, engine): make_engine(engine)
        .execute(to_analytical(query.sparql), graphs[query.dataset])
        .cost_seconds
        for qid, query in CATALOG.items()
        for engine in PAPER_ENGINES
    }


def test_cost_seconds_do_not_depend_on_the_builtin_sum(graphs, monkeypatch):
    folded = _costs(graphs)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    compensated = _costs(graphs)
    monkeypatch.undo()
    assert len(folded) == len(CATALOG) * len(PAPER_ENGINES)
    moved = {run: (folded[run], compensated[run]) for run in folded if folded[run] != compensated[run]}
    assert moved == {}


def _rerun_report(path: Path) -> dict:
    kind, report = load_report(path)
    return kind.rerun(report)


def _metrics_snapshot(path: Path) -> dict:
    spec = "seeds=2,clients=3,mix=chem-overlap,requests=16,planner=cost"
    return serve_workload_with_metrics(WorkloadSpec.from_spec(spec))[1]


def _explain_text(path: Path) -> str:
    graph = generate("bsbm", "tiny")
    config = EngineConfig(planner="cost")
    return explain(get_query(path.stem).sparql, "rapid-analytics", graph, config)


def _regenerators() -> dict[str, object]:
    """Committed golden (relative path) -> how to regenerate it, as
    ``benchmarks/test_observability.py`` and ``tests/plan/test_explain.py``
    do for the two that are not a re-runnable report."""
    found = {}
    for directory in ("benchmarks/golden", "tests/golden"):
        for path in sorted((ROOT / directory).rglob("*")):
            name = str(path.relative_to(ROOT))
            if path.suffix == ".json" and json.loads(path.read_text())["schema"] in KIND_MODULES:
                found[name] = _rerun_report
            elif path.parent.name == "explain":
                found[name] = _explain_text
    found["benchmarks/golden/metrics-chem-overlap.json"] = _metrics_snapshot
    return found


#: Goldens no simulated number reaches: the trace schema and the
#: exposition of a hand-built registry (``tests/obs/test_metrics_properties.py``).
NOT_REGENERATED = {"tests/golden/trace_schema_v1.json", "tests/golden/metrics-prometheus.txt"}

REGENERATORS = _regenerators()


def test_every_golden_is_regenerated_or_named():
    committed = {
        str(path.relative_to(ROOT))
        for directory in ("benchmarks/golden", "tests/golden")
        for path in (ROOT / directory).rglob("*")
        if path.is_file()
    }
    assert committed == set(REGENERATORS) | NOT_REGENERATED


@pytest.mark.parametrize("name", sorted(REGENERATORS))
def test_goldens_do_not_depend_on_the_builtin_sum(name, monkeypatch, tmp_path):
    path = ROOT / name
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    fresh = REGENERATORS[name](path)
    monkeypatch.undo()
    if isinstance(fresh, str):
        assert fresh == path.read_text()
    else:
        assert write_report(fresh, tmp_path / path.name).read_bytes() == path.read_bytes()
