"""``benchmarks/trajectory.py --check`` on synthetic rows and traced runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", REPO_ROOT / "benchmarks" / "trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(trajectory, pr: int, sizes: str, cost: float) -> dict:
    rows = {trajectory.PYTHON: {"catalog-sweep": {"sim.cycles": 7, "sim.cost_s": cost}}}
    return {"pr": pr, "exact": {"sizes": sizes, "seed": 11, "rows": rows}}


def _traced(tmp_path: Path, sizes: str, cost: float) -> str:
    result = {
        "correct": True,
        "sizes": sizes,
        "seed": 11,
        "exact": {"sim.cycles": 7, "sim.cost_s": cost},
        "metrics": {},
    }
    (tmp_path / "catalog-sweep.traced.json").write_text(json.dumps(result))
    return str(tmp_path)


def test_equal_rows_pass(trajectory, tmp_path):
    rows = [_row(trajectory, 11, "full", 1.5), _row(trajectory, 40, "smoke", 0.5)]
    assert trajectory.check(rows, _traced(tmp_path, "smoke", 0.5)) == []
    assert trajectory.check(rows, _traced(tmp_path, "full", 1.5)) == []


def test_a_moved_row_against_the_newest_row_blames_the_tree(trajectory, tmp_path):
    rows = [_row(trajectory, 11, "full", 1.5), _row(trajectory, 40, "smoke", 0.5)]
    problems = trajectory.check(rows, _traced(tmp_path, "smoke", 0.25))
    assert problems == ["sim.cost_s@catalog-sweep moved: PR40 has 0.5, this tree 0.25"]


def test_a_moved_row_against_an_older_row_names_the_newer_one(trajectory, tmp_path):
    rows = [
        _row(trajectory, 11, "full", 1.5),
        {"pr": 30, "measured": False},
        _row(trajectory, 40, "smoke", 0.5),
    ]
    note, *moved = trajectory.check(rows, _traced(tmp_path, "full", 2.5))
    assert moved == ["sim.cost_s@catalog-sweep moved: PR11 has 1.5, this tree 2.5"]
    assert note.startswith("PR11 is the newest row at sizes full, seed 11")
    assert "the newest, PR40, at sizes smoke" in note
    assert "taken at other sizes" in note
    assert note.endswith("take the traced runs with --smoke to check against PR40")


def test_no_row_at_the_runs_sizes(trajectory, tmp_path):
    rows = [_row(trajectory, 40, "smoke", 0.5)]
    problems = trajectory.check(rows, _traced(tmp_path, "full", 1.5))
    assert problems == [f"no committed row at sizes full, seed 11, Python {trajectory.PYTHON}"]
