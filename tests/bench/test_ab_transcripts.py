"""Full-report transcript of the A/B producers' non-golden paths.

The five committed goldens (``planner-ab-mg``, ``calibration-mg``,
``shard-ab-mg-4``, ``faults-table3-bsbm-tiny`` and ``chaos-figure8a``)
pin each producer's default cell.  ``ab_transcripts.json`` pins the whole report of one cell
per branch those defaults never reach: several datasets in one catalog
A/B, a single-strategy shard A/B, one shard, a fault plan that aborts
every run and a chaos soak whose budget runs out.  It was captured at
c8906bf, the last commit before the producers became row builders over
one baseline-vs-variant loop: the loop moved no number of any of them.
The fault and chaos cells were re-cut when ``--faults`` became the chaos
soak's one-plan case; ``tests/test_golden_recut.py`` maps them back to
the bytes captured here.  Every cell's bytes and costs were re-cut once
more when a solution row stopped being sized by its variable names; the
one-shard cell then took the single-cluster path, and the chaos cell's
rate was re-derived (0.3 -> 0.25) so that its budget still runs out on
15 of 16 runs.

Each cell also asserts the branch it exists for, so the matrix cannot
silently stop covering it.

Regenerate (only when a behaviour change is intended, and say so)::

    PYTHONPATH=src python tests/bench/test_ab_transcripts.py
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.bench.calibration import calibration_report
from repro.bench.chaos import ChaosSpec, chaos_soak_report
from repro.mapreduce.faults import FaultPlan
from repro.plan.ab import planner_ab_report
from repro.shard.ab import shard_ab_report

TRANSCRIPTS = Path(__file__).with_name("ab_transcripts.json")

Report = dict[str, Any]


def _three_datasets_and_solo(report: Report) -> bool:
    return {run["dataset"] for run in report["runs"]} == {"bsbm", "chem", "pubmed"} and any(
        run["chosen"] == "solo" for run in report["runs"]
    )


def _three_datasets_one_drifting(report: Report) -> bool:
    return {run["dataset"] for run in report["runs"]} == {"bsbm", "chem", "pubmed"} and any(
        run["verdict"] == "drifting" for run in report["runs"]
    )


def _hash_vs_min_cut_not_comparable(report: Report) -> bool:
    return report["strategies"] == ["locality"] and not report["verdicts"][
        "min_cut_beats_hash_queries"
    ]


def _one_shard(report: Report) -> bool:
    return report["shards"] == 1 and report["verdicts"]["answers_all_match"]


def _every_run_aborts(report: Report) -> bool:
    return all(
        run["failed"] and run["cost_seconds"] is None for run in report["runs"]
    ) and all(
        stats["completed"] == 0 and stats["mean_extra_cost_seconds"] is None
        for stats in report["summary"].values()
    )


def _budget_runs_out(report: Report) -> bool:
    incomplete = [run for run in report["runs"] if run["failed"]]
    return len(report["runs"]) == 16 and len(incomplete) == 15


def _chaos(experiment: str, text: str) -> Report:
    spec = ChaosSpec.from_spec(text)
    return chaos_soak_report(experiment, spec.plans(), spec.policy())


@dataclass(frozen=True)
class Cell:
    produce: Callable[[], Report]
    #: True when the report reached the branch the cell exists for.
    covers: Callable[[Report], bool]


CELLS: dict[str, Cell] = {
    "planner-ab G1,G5,MG11": Cell(
        lambda: planner_ab_report(["G1", "G5", "MG11"]), _three_datasets_and_solo
    ),
    "calibration G1,MG6,MG11": Cell(
        lambda: calibration_report(["G1", "MG6", "MG11"]), _three_datasets_one_drifting
    ),
    "shards MG6 2,locality": Cell(
        lambda: shard_ab_report(["MG6"], 2, ("locality",)), _hash_vs_min_cut_not_comparable
    ),
    "shards MG1 1": Cell(lambda: shard_ab_report(["MG1"], 1), _one_shard),
    "faults table3-bsbm-tiny 7,0.3,0,0,1": Cell(
        lambda: chaos_soak_report("table3-bsbm-tiny", [FaultPlan.from_spec("7,0.3,0,0,1")]),
        _every_run_aborts,
    ),
    "chaos table3-bsbm-tiny seeds=2,rate=0.25,budget=1": Cell(
        lambda: _chaos("table3-bsbm-tiny", "seeds=2,rate=0.25,budget=1"),
        _budget_runs_out,
    ),
}


def capture_all() -> dict[str, Report]:
    return {name: cell.produce() for name, cell in CELLS.items()}


@pytest.fixture(scope="module")
def transcripts():
    return capture_all()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TRANSCRIPTS.read_text())


@pytest.mark.parametrize("name", list(CELLS))
def test_transcript_did_not_move(name, transcripts, pinned):
    # Through the report writer's own encoding: what a committed file holds.
    assert json.loads(json.dumps(transcripts[name])) == pinned[name]


def test_the_matrix_is_the_pinned_matrix(pinned):
    assert sorted(pinned) == sorted(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_each_cell_drives_its_branch(name, transcripts):
    assert CELLS[name].covers(transcripts[name])


if __name__ == "__main__":
    captured = capture_all()
    TRANSCRIPTS.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TRANSCRIPTS} ({len(captured)} cells)")
