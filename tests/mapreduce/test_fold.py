"""The simulated clock adds its seconds in one order on every Python.

From 3.12 the builtin ``sum`` adds floats with compensated (Neumaier)
summation, so a cost summed with it depends on the interpreter.  Every
float sum on the simulated clock goes through ``cost.fold_seconds``, a
plain left fold; this test runs the catalog on the paper's engines with
the builtin ``sum`` replaced by a Neumaier sum -- what 3.12 does -- and
requires every ``cost_seconds`` to come out bit-identical.
"""

from __future__ import annotations

import builtins

import pytest

from repro.bench.catalog import CATALOG
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.datasets import generate
from repro.mapreduce.cost import fold_seconds

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
