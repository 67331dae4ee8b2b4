"""Transcription of the one golden re-cut: no simulated number moved.

``--faults`` became the one-plan, no-recovery case of the chaos soak:
the fault report kind was folded into ``repro-chaos-soak/v2``, and
``ServeResponse`` lost a field nothing ever set.  Four committed files were re-cut.  This test maps each back
to its earlier form -- restoring every removed field from what is left,
every old name, and the never-set response field as ``False`` -- and
checks the result against a SHA-256 of the earlier file's bytes, held
below.  A re-cut that moved a cycle, a byte, a cost or a row would not
hash back.
"""

from __future__ import annotations

import hashlib
import json
from ast import literal_eval
from collections import defaultdict
from pathlib import Path
from typing import Any

import pytest

REPO = Path(__file__).resolve().parents[1]
FAULTS_GOLDEN = REPO / "benchmarks" / "golden" / "faults-table3-bsbm-tiny.json"
CHAOS_GOLDEN = REPO / "benchmarks" / "golden" / "chaos-figure8a.json"
AB_TRANSCRIPTS = REPO / "tests" / "bench" / "ab_transcripts.json"
SERVE_TRANSCRIPTS = REPO / "tests" / "serve" / "transcripts.json"

#: SHA-256 of each file's bytes before the re-cut.
EARLIER = {
    FAULTS_GOLDEN: "64b3162aa325cf59f566161b02f39b4be44b1ab0290849c93522335858be8c72",
    CHAOS_GOLDEN: "7b1017aebfc0e0c685b8332fbbf0030768c385a852a9e139c965da995c280111",
    AB_TRANSCRIPTS: "35909d7fd27f2128115b313b10986b3cc477e4fb5e58faea814c9168fc68ab27",
    SERVE_TRANSCRIPTS: "3b01ee935140ee2207ddbf6a67b89ae53bc7890533618c4e5b6cf35db2b2d721",
}

FAULTS_SCHEMA = "repro-fault-resilience/v1"
CHAOS_V1_SCHEMA = "repro-chaos-soak/v1"

#: Every field the re-cut removed (each derivable from what is left)
#: or renamed (new name -> old name), per place.
FAULT_ROW_REMOVED = {"degradation"}
FAULT_ROW_RENAMED = {"cost_seconds": "faulted_cost_seconds"}
FAULT_SUMMARY_REMOVED = {
    "aborted_runs", "max_degradation", "mean_degradation", "total_extra_cost_seconds",
}
CHAOS_HEAD_REMOVED = {"chaos"}
CHAOS_ROW_REMOVED = {"completed"}
CHAOS_ROW_RENAMED = {"cost_seconds": "chaos_cost_seconds"}
CHAOS_SUMMARY_REMOVED = {
    "bit_identical", "salvaged_bytes", "lost_seconds", "salvaged_seconds_per_failure",
    "salvage_ratio",
}
CHAOS_TAIL_REMOVED = {"verdicts"}
SERVE_RESPONSE_REMOVED = ("plan_cached", 11, False)  # (field, tuple index, value)

#: Fields the re-cut's one shape added where a kind lacked them.
HEAD_ADDED = {"fault_plans", "recovery"}
FAULT_ROW_ADDED = {"seed", "recovery"}
CHAOS_ROW_ADDED = {"cycles", "fault_counters"}
FAULT_SUMMARY_ADDED = {
    "runs", "completed", "failures", "jobs_skipped", "salvaged_seconds",
    "wasted_seconds", "overhead_seconds", "lost_seconds_per_failure",
}
CHAOS_SUMMARY_ADDED = {"mean_extra_cost_seconds"}

Report = dict[str, Any]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_bytes(report: Report) -> str:
    """``repro.report.write_report``'s byte format."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _renamed(row: Report, renames: dict[str, str]) -> Report:
    return {renames.get(name, name): value for name, value in row.items()}


def _without(fields: dict[str, Any], added: set[str]) -> dict[str, Any]:
    assert added <= fields.keys()
    return {name: value for name, value in fields.items() if name not in added}


def _fault_row(row: Report, seed: int) -> Report:
    assert row["seed"] == seed and row["recovery"] == {}
    old = _renamed(_without(row, FAULT_ROW_ADDED), FAULT_ROW_RENAMED)
    # An aborted run's cost was written as repr(inf).
    if old["faulted_cost_seconds"] is None:
        old["faulted_cost_seconds"] = repr(float("inf"))
    old["degradation"] = (
        None
        if row["failed"]
        else round(float(row["cost_seconds"]) / float(row["baseline_cost_seconds"]), 6)
    )
    return old


def _fault_summary(stats: Report, rows: list[Report]) -> Report:
    done = [row for row in rows if not row["failed"]]
    degradations = [row["degradation"] for row in done]
    extras = [row["extra_cost_seconds"] for row in done]
    old = {
        "mean_degradation": round(sum(degradations) / len(degradations), 6) if done else None,
        "max_degradation": round(max(degradations), 6) if done else None,
        "mean_extra_cost_seconds": stats["mean_extra_cost_seconds"],
        "total_extra_cost_seconds": round(sum(extras), 6) if done else None,
        "aborted_runs": stats["runs"] - stats["completed"],
    }
    assert set(old) - set(stats) == FAULT_SUMMARY_REMOVED
    assert set(stats) - set(old) == FAULT_SUMMARY_ADDED
    return old


def fault_form(report: Report) -> Report:
    """A ``--faults`` re-cut report in its earlier kind's form."""
    (plan,) = report["fault_plans"]
    assert report["recovery"] is None
    old = _without(report, HEAD_ADDED | {"runs", "summary"})
    old["schema"] = FAULTS_SCHEMA
    old["fault_plan"] = plan
    old["runs"] = [_fault_row(row, plan["seed"]) for row in report["runs"]]
    old["summary"] = {
        engine: _fault_summary(
            stats, [row for row in old["runs"] if row["engine"] == engine]
        )
        for engine, stats in report["summary"].items()
    }
    return old


def _chaos_row(row: Report) -> Report:
    old = _renamed(_without(row, CHAOS_ROW_ADDED), CHAOS_ROW_RENAMED)
    old["completed"] = not row["failed"]
    return old


def _chaos_summary(stats: Report, rows: list[Report]) -> Report:
    done = [row for row in rows if row["completed"]]
    totals: dict[str, float] = defaultdict(float)
    for row in done:
        for name, value in row["recovery"].items():
            totals[name] += float(value)
    failures = int(totals["resubmissions"])
    lost = totals["wasted_seconds"] + totals["overhead_seconds"]
    at_risk = totals["salvaged_seconds"] + lost

    def per_failure(total: float) -> float | None:
        return round(total / failures, 6) if failures else None

    old = {
        **_without(stats, CHAOS_SUMMARY_ADDED),
        "bit_identical": all(
            row["rows_match_baseline"] and row["base_counters_match_baseline"]
            for row in rows
        ),
        "salvaged_bytes": int(totals["salvaged_bytes"]),
        "lost_seconds": round(lost, 6),
        "salvaged_seconds_per_failure": per_failure(totals["salvaged_seconds"]),
        "salvage_ratio": round(totals["salvaged_seconds"] / at_risk, 6) if at_risk else None,
    }
    assert set(old) - set(stats) == CHAOS_SUMMARY_REMOVED
    return old


def chaos_form(report: Report) -> Report:
    """A ``--chaos`` re-cut report in its earlier form."""
    plans, recovery = report["fault_plans"], report["recovery"]
    first = plans[0]
    assert [plan["seed"] for plan in plans] == list(range(1, len(plans) + 1))
    assert all({**plan, "seed": first["seed"]} == first for plan in plans)
    old = _without(report, HEAD_ADDED | {"runs", "summary"})
    old["schema"] = CHAOS_V1_SCHEMA
    old["chaos"] = {
        "seeds": len(plans),
        "rate": first["task_failure_rate"],
        "attempts": first["max_attempts"],
        "budget": recovery["max_resubmissions"],
        "straggler_rate": first["straggler_rate"],
        "write_failure_rate": first["hdfs_write_failure_rate"],
    }
    old["runs"] = [_chaos_row(row) for row in report["runs"]]
    old["summary"] = {
        engine: _chaos_summary(stats, [row for row in old["runs"] if row["engine"] == engine])
        for engine, stats in report["summary"].items()
    }
    naive, rapid = (
        old["summary"].get(engine, {}).get("lost_seconds_per_failure")
        for engine in ("hive-naive", "rapid-analytics")
    )
    old["verdicts"] = {
        "all_complete": all(row["completed"] for row in old["runs"]),
        "all_bit_identical": all(stats["bit_identical"] for stats in old["summary"].values()),
        "hive_naive_loses_more_per_failure": naive > rapid
        if naive is not None and rapid is not None
        else None,
    }
    return old


def _response_form(pinned: str) -> str:
    name, index, value = SERVE_RESPONSE_REMOVED
    values = literal_eval(pinned)
    assert repr(values) == pinned
    return repr(values[:index] + (value,) + values[index:])


def serve_form(transcripts: Report) -> Report:
    return {
        cell: {
            **outcome,
            "responses": [_response_form(pinned) for pinned in outcome["responses"]],
        }
        for cell, outcome in transcripts.items()
    }


def _load(path: Path) -> Report:
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "path, form",
    [(FAULTS_GOLDEN, fault_form), (CHAOS_GOLDEN, chaos_form)],
    ids=["faults-golden", "chaos-golden"],
)
def test_a_recut_golden_maps_back_to_its_earlier_bytes(path, form):
    assert _sha(_report_bytes(form(_load(path)))) == EARLIER[path]


def test_the_ab_transcripts_map_back_to_their_earlier_bytes():
    cells = _load(AB_TRANSCRIPTS)
    faults = "faults table3-bsbm-tiny 7,0.3,0,0,1"
    chaos = "chaos table3-bsbm-tiny seeds=2,rate=0.3,budget=1"
    cells[faults] = fault_form(cells[faults])
    cells[chaos] = chaos_form(cells[chaos])
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    assert _sha(text) == EARLIER[AB_TRANSCRIPTS]


def test_the_serve_transcripts_map_back_to_their_earlier_bytes():
    text = json.dumps(serve_form(_load(SERVE_TRANSCRIPTS)), indent=1) + "\n"
    assert _sha(text) == EARLIER[SERVE_TRANSCRIPTS]


def test_no_removed_field_is_still_written():
    from dataclasses import fields

    from repro.serve import ServeResponse

    assert SERVE_RESPONSE_REMOVED[0] not in {f.name for f in fields(ServeResponse)}
    gone_from_rows = (
        FAULT_ROW_REMOVED | CHAOS_ROW_REMOVED
        | set(FAULT_ROW_RENAMED.values()) | set(CHAOS_ROW_RENAMED.values())
    )
    gone_from_summaries = FAULT_SUMMARY_REMOVED | CHAOS_SUMMARY_REMOVED
    for report in (_load(FAULTS_GOLDEN), _load(CHAOS_GOLDEN)):
        assert not (CHAOS_HEAD_REMOVED | CHAOS_TAIL_REMOVED) & report.keys()
        for row in report["runs"]:
            assert not gone_from_rows & row.keys()
        for stats in report["summary"].values():
            assert not gone_from_summaries & stats.keys()
