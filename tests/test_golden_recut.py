"""Transcription of the golden re-cuts.

**The fault re-cut: no simulated number moved.**

``--faults`` became the one-plan, no-recovery case of the chaos soak:
the fault report kind was folded into ``repro-chaos-soak/v2``, and
``ServeResponse`` lost a field nothing ever set.  Four committed files were re-cut.  This test maps each back
to its earlier form -- restoring every removed field from what is left,
every old name, and the never-set response field as ``False`` -- and
checks the result against a SHA-256 of the earlier file's bytes, held
below.  A re-cut that moved a cycle, a byte, a cost or a row would not
hash back.

**The fold re-cut: only the sharded exchange moved.**  A sharded TG_AgJ
ships one partial per key and map task instead of one per solution, so
the shard A/B reports' ``exchange_bytes`` and ``actual_cost`` (and the
per-strategy exchange sums) moved, and nothing else: answers, digests,
cycles, edge cuts, unsharded costs, rankings and verdicts are the
parent's.  ``FOLD_MOVED`` holds the parent's values of the moved fields;
put back, each re-cut file hashes to the parent's bytes.

**The sizing re-cut: bytes and costs moved, answers did not.**  A
solution row is sized by its terms plus a fixed charge per column, no
longer by the ``repr`` of its variable names, so every byte and cost
figure sized from a row moved, and with them what follows from a cost
(simulated times, latency histograms, deadline verdicts) and what is
keyed by a volume (which task an injected fault hits).
``golden_recut_sizing.json`` holds the parent's value of every leaf that
moved in each re-cut file; put back, each hashes to the parent's bytes.
No moved leaf is a row, digest, cycle, record count or cut edge, save
the few :data:`SIZING_EXCEPTIONS` name with their cause.  The earlier
transcriptions read each file through the sizing re-cut first
(:func:`_load`), so they still hash back to their own earlier bytes.

**The planner re-cut: only the replay's own bytes moved.**  The serve
layer stopped replaying the cost planner's choice, so a
:class:`~repro.plan.enumerator.PlanChoice` lost its ``source`` (always
``"priced"`` without a replay): the A/B and calibration rows, the
``planner-choice`` event, the ``planner_choices_total`` counter and the
``explain --run --json`` CLI transcript dropped it, and in the
``cost-planner`` serve cell the replay's
``cache-hit`` events and plan-cache entries are gone.
:func:`planner_back` puts each ``"source": "priced"`` back, then
``golden_recut_planner.json`` -- the parent's value of every other leaf
that moved -- so each re-cut file hashes to the parent's bytes.
:func:`_load` undoes it first, before the sizing re-cut.
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
SHARD_GOLDEN = REPO / "benchmarks" / "golden" / "shard-ab-mg-4.json"
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
    """*path* as the parent of the sizing re-cut wrote it."""
    return sized_back(path, planner_back(path, json.loads(path.read_text())))


# -- the sizing re-cut -----------------------------------------------------------

SIZING_MOVED = json.loads((REPO / "tests" / "golden_recut_sizing.json").read_text())

#: SHA-256 of each file's bytes before the sizing re-cut.
BEFORE_SIZING = {
    "benchmarks/golden/calibration-mg.json": "5c500cd73ad8c7165a1d65ea5de88c243a55b66a77f4dd0173966b20ef8b92a0",
    "benchmarks/golden/chaos-figure8a.json": "83c57c9e2ddf18aed9406eb1503cff3d17853576ba1fe85be02452639fb47652",
    "benchmarks/golden/faults-table3-bsbm-tiny.json": "71e0a8f2aa55285edd361550afde3875fcdb690087eea4f14a36b7f8f14d9954",
    "benchmarks/golden/metrics-chem-overlap.json": "a2bed0b0d031f3c9e5e160f708eb2ba894953a97a2679ecb8ec20be8b07e95c3",
    "benchmarks/golden/planner-ab-mg.json": "499c8ee07be3e32fa1e501df651906139ef69165b9ffc3b451b1cf5ffb52998a",
    "benchmarks/golden/serve-chem-overlap.json": "cb903c0f25dd8be41c11df10efdb7f6281daeddc91488d6e96862a5522035bd3",
    "benchmarks/golden/serve-resilience-chem.json": "58f7ad2e334c23731431fa2f65fab732a371cdc1e7ab7986c96f6ea963fc03ca",
    "benchmarks/golden/shard-ab-mg-4.json": "53341a624a216b3eca15344da9a382174ba3e8e10ed2dd30e19f65cd50ef7ce0",
    "benchmarks/golden/table3-bsbm-tiny.json": "80b501023210ac608c228d9a69df64e477aaee0228334d883620d6cc343d937c",
    "tests/golden/bsbm-tiny.json": "d64df47119b5567e7eb1271f4a105b879f2774347a662697a13a059c5e83fa93",
    "tests/golden/chem-tiny.json": "138222deb3e3f73bb9f594e99050bfebe17ba74465e574c5e4f4be685c6973fb",
    "tests/golden/pubmed-tiny.json": "ca703e2c34e844337290c6169ab7450618ee7ad18ce3fded7befa294bd02d836",
    "tests/bench/ab_transcripts.json": "6949c6bbdc5bad84865c099af29275fa70cce18deba056b3658781a6c7e38ab4",
    "tests/serve/transcripts.json": "98d7dac9a027f195fdcf994234d89b2ac38e15923986a937b1671d0a37a6741e",
}

#: What a re-cut never moves: answers, cycles, record and task counts,
#: plan shapes, cut edges, run outcomes.
UNMOVED = {
    "rows", "rows_digest", "digest", "rows_match", "answers_all_match", "failed",
    "cycles", "map_only_cycles", "map_only", "name", "map_tasks", "reduce_tasks",
    "input_records", "output_records", "map_input_records", "map_output_records",
    "reduce_input_records", "reduce_output_records", "cut_edges", "total_edges",
}
#: Fields of a pinned serve response that may move: its simulated times
#: and costs, and its error text (a deadline message quotes seconds, a
#: fault message the task the fault hit).
RESPONSE_MOVABLE = {"started", "completed", "latency", "unit_cost", "retry_backoff", "error"}

#: ``(file, path prefix)`` -> why an UNMOVED field moved there.
SIZING_EXCEPTIONS = {
    ("benchmarks/golden/table3-bsbm-tiny.json", ("runs", 6)): (
        "G4 on hive-naive: the formed star its join reads as a side table "
        "now sizes 478 B, under BSBM's 512 B map-join threshold, so the rule "
        "planner runs the join map-only (map-only cycles 1 -> 2)"
    ),
    ("tests/golden/bsbm-tiny.json", ("runs", 0)): (
        "MG2 on hive-naive: the same map-join decision in its first subquery "
        "(map-only cycles 4 -> 5)"
    ),
    ("tests/bench/ab_transcripts.json", ("shards MG1 1",)): (
        "one shard runs the single-cluster path: 3 cycles, not the sharded "
        "tree's 5"
    ),
    ("tests/bench/ab_transcripts.json", ("chaos table3-bsbm-tiny seeds=2,rate=0.3,budget=1",)): (
        "the cell was re-derived as rate=0.25, so that a budget of one still "
        "runs out on 15 of 16 runs once faults hit other tasks"
    ),
    ("tests/serve/transcripts.json", ("retries",)): (
        "the faulty cells' plan was re-derived as seed 33; in this cell one "
        "unit needs one retry fewer (4 -> 3 retries, 7 -> 6 solo units)"
    ),
}

#: Transcripts are written with indent 1, by folder sorted or not;
#: every other re-cut file in the report writer's format.
_TRANSCRIPT_SORT_KEYS = {"tests/bench": True, "tests/core": False, "tests/serve": False}


def _file_bytes(name: str, report: Report) -> str:
    folder = name.rsplit("/", 1)[0]
    if folder in _TRANSCRIPT_SORT_KEYS:
        return json.dumps(report, indent=1, sort_keys=_TRANSCRIPT_SORT_KEYS[folder]) + "\n"
    return _report_bytes(report)


def _name(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def _at(report: Report, keys: list) -> Any:
    for key in keys:
        report = report[key]
    return report


def sized_back(path: Path, report: Report) -> Report:
    """*report* (read from *path*) with the parent's value of every leaf
    the sizing re-cut moved put back, and every leaf it added dropped."""
    moved = SIZING_MOVED.get(_name(path), {})
    for (*parents, last), value in moved.get("set", ()):
        node = _at(report, parents)
        if isinstance(node, list) and last == len(node):
            node.append(value)
        else:
            node[last] = value
    for *parents, last in reversed(moved.get("drop", ())):
        del _at(report, parents)[last]
    return report


@pytest.mark.parametrize("name", sorted(BEFORE_SIZING))
def test_the_sizing_recut_maps_back_to_the_parent_bytes(name):
    text = _file_bytes(name, _load(REPO / name))
    assert _sha(text) == BEFORE_SIZING[name]


def test_the_sizing_recut_moved_no_answer_cycle_record_or_cut():
    from dataclasses import fields

    from repro.serve.service import ServeResponse

    response_fields = [f.name for f in fields(ServeResponse)]
    used = set()
    for name, moved in SIZING_MOVED.items():
        current = json.loads((REPO / name).read_text())
        touched = [*moved.get("set", ()), *([keys, None] for keys in moved.get("drop", ()))]
        for keys, was in touched:
            excuses = {
                (file, prefix) for file, prefix in SIZING_EXCEPTIONS
                if file == name and tuple(keys[: len(prefix)]) == prefix
            }
            used |= excuses
            if excuses:
                continue
            field = [key for key in keys if isinstance(key, str)][-1]
            assert field not in UNMOVED, (name, keys)
            if field == "responses":
                before = dict(zip(response_fields, literal_eval(was)))
                after = dict(zip(response_fields, literal_eval(_at(current, keys))))
                changed = {f for f in response_fields if before[f] != after[f]}
                assert changed <= RESPONSE_MOVABLE, (name, keys, changed)
    assert used == set(SIZING_EXCEPTIONS)


# -- the fold re-cut -------------------------------------------------------------

#: SHA-256 of each file's bytes before the fold re-cut.
BEFORE_FOLD = {
    SHARD_GOLDEN: "d7f27de6b435c2d15f29bfaa6b472e425a7844bd28b140aad30e03ca3e1fd313",
    AB_TRANSCRIPTS: "6bae3b2c1ea62ab7abaddb336967efe9130bd35bff959aa1d5424d3b8bec565d",
}
SHARD_CELLS = ("shards MG1 1", "shards MG6 2,locality")

#: The parent's ``(exchange_bytes, actual_cost)`` per report, qid and
#: strategy: the only per-strategy fields the fold moved.
FOLD_MOVED = {
    "shard-ab-mg-4": {
        "MG1": {
            "hash": (30873, 39.111235),
            "locality": (37910, 41.931262),
            "min-edge-cut": (23459, 37.885272),
        },
        "MG2": {
            "hash": (22129, 36.270211),
            "locality": (27890, 38.479439),
            "min-edge-cut": (13513, 35.227008),
        },
        "MG3": {
            "hash": (61053, 61.98269),
            "locality": (56919, 67.173792),
            "min-edge-cut": (47799, 58.232894),
        },
        "MG4": {
            "hash": (27681, 51.287581),
            "locality": (33795, 54.218062),
            "min-edge-cut": (17518, 50.057876),
        },
    },
    "shards MG1 1": {
        "MG1": {strategy: (0, 44.000543) for strategy in ("hash", "locality", "min-edge-cut")},
    },
    "shards MG6 2,locality": {"MG6": {"locality": (49863, 66.27711)}},
}

#: What the fold must not move in the 4-shard golden, as the parent had
#: it: per qid the rows, their digest, the unsharded cost and per
#: strategy ``(cycles, cut_edges, total_edges, rows_match)``; and the
#: verdicts.
FOLD_UNMOVED = {
    "MG1": (23, "0e8ec837842f02d4", 28.342788, (20, 20, 20)),
    "MG2": (4, "8cd28bba404a89d9", 26.00274, (20, 20, 20)),
    "MG3": (68, "8ea128f942715309", 43.602591, (28, 28, 28)),
    "MG4": (8, "447859bb616ee927", 35.688877, (28, 28, 28)),
}
FOLD_EDGES = {"hash": (231, 300), "locality": (271, 300), "min-edge-cut": (98, 300)}
FOLD_VERDICTS = {
    "answers_all_match": True,
    "min_cut_beats_hash_on_two": True,
    "min_cut_beats_hash_queries": ["MG1", "MG2", "MG3", "MG4"],
}


def unfolded_form(report: Report, moved: dict[str, dict[str, tuple]]) -> Report:
    """A shard A/B report with the parent's moved fields put back: the
    per-strategy exchange sums are re-derived from the restored rows."""
    old = json.loads(json.dumps(report))
    totals: dict[str, int] = defaultdict(int)
    for run in old["runs"]:
        for strategy, cell in run["strategies"].items():
            cell["exchange_bytes"], cell["actual_cost"] = moved[run["qid"]][strategy]
            totals[strategy] += cell["exchange_bytes"]
    assert old["summary"]["per_strategy_exchange_bytes"].keys() == totals.keys()
    old["summary"]["per_strategy_exchange_bytes"] = dict(totals)
    return old


def test_the_fold_recut_golden_maps_back_to_the_parent_bytes():
    parent = unfolded_form(_load(SHARD_GOLDEN), FOLD_MOVED["shard-ab-mg-4"])
    assert _sha(_report_bytes(parent)) == BEFORE_FOLD[SHARD_GOLDEN]


def test_the_fold_recut_transcripts_map_back_to_the_parent_bytes():
    cells = _load(AB_TRANSCRIPTS)
    for cell in SHARD_CELLS:
        cells[cell] = unfolded_form(cells[cell], FOLD_MOVED[cell])
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    assert _sha(text) == BEFORE_FOLD[AB_TRANSCRIPTS]


def test_the_fold_moved_no_answer_cycle_cut_cost_base_or_verdict():
    report = _load(SHARD_GOLDEN)
    assert [run["qid"] for run in report["runs"]] == list(FOLD_UNMOVED)
    for run in report["runs"]:
        rows, digest, unsharded_cost, cycles = FOLD_UNMOVED[run["qid"]]
        assert (run["rows"], run["rows_digest"], run["unsharded_cost"]) == (
            rows, digest, unsharded_cost,
        )
        strategies = run["strategies"]
        assert tuple(strategies[s]["cycles"] for s in sorted(strategies)) == cycles
        for strategy, cell in strategies.items():
            assert (cell["cut_edges"], cell["total_edges"]) == FOLD_EDGES[strategy]
            assert cell["rows_match"] is True
    assert report["verdicts"] == FOLD_VERDICTS
    # And what did move, moved down: the fold only removes exchange.
    for run in report["runs"]:
        for strategy, cell in run["strategies"].items():
            bytes_before, cost_before = FOLD_MOVED["shard-ab-mg-4"][run["qid"]][strategy]
            assert cell["exchange_bytes"] <= bytes_before
            assert cell["actual_cost"] <= cost_before


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
    chaos = "chaos table3-bsbm-tiny seeds=2,rate=0.3,budget=1"  # before its re-derivation
    cells[faults] = fault_form(cells[faults])
    cells[chaos] = chaos_form(cells[chaos])
    for cell in SHARD_CELLS:  # the fold re-cut, undone first
        cells[cell] = unfolded_form(cells[cell], FOLD_MOVED[cell])
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    assert _sha(text) == EARLIER[AB_TRANSCRIPTS]


def test_the_serve_transcripts_map_back_to_their_earlier_bytes():
    text = json.dumps(serve_form(_load(SERVE_TRANSCRIPTS)), indent=1) + "\n"
    assert _sha(text) == EARLIER[SERVE_TRANSCRIPTS]


def test_no_removed_field_is_still_written():
    from dataclasses import fields

    from repro.serve.service import ServeResponse

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


# -- the planner re-cut ----------------------------------------------------------

PLANNER_MOVED = json.loads((REPO / "tests" / "golden_recut_planner.json").read_text())

#: SHA-256 of each file's bytes before the planner re-cut.
BEFORE_PLANNER = {
    "benchmarks/golden/calibration-mg.json": "4a97c088ab871969cb0e33600f9f0bad8ecff36963727c7a872b42e29e45ff3d",
    "benchmarks/golden/metrics-chem-overlap.json": "44a9dcbb00282ff1cea127068edd137f220692eb405f57c110b8f0237c9f2987",
    "benchmarks/golden/planner-ab-mg.json": "f1b3d631a7cb65ab19b2b3c9eac8043630333f3a8681dcc81470ff59451c0761",
    "tests/bench/ab_transcripts.json": "e4cb363778144c64396e1f140d7af0071d1bcaf011a1896c9aba2fc171e18a51",
    "tests/core/cli_transcripts.json": "d32a72c2d831a56de0eea955e2fa5282ea2abe9fcee0398d55fccfb069e92404",
    "tests/serve/transcripts.json": "079e0599f85cca7d642ecc9d4add3727a033b71b3c701fd12df8fa5b2a0888be",
}
#: The one CLI case that prints a choice, as ``explain --json`` text.
EXPLAIN_JSON = ("tests/core/cli_transcripts.json", ["cases", "explain run json", "stdout"])

#: What every choice reported when the pick was priced, not replayed.
PLANNER_SOURCE = "priced"
PLANNER_COUNTER = "planner_choices_total"
PLANNER_COUNTER_HELP = "adaptive planner decisions by mode/candidate/source"


def sourced(node: Any) -> Any:
    """*node* with ``source`` put back wherever a plan choice is
    reported: A/B and calibration rows, ``planner-choice`` events and the
    ``planner_choices_total`` counter."""
    if isinstance(node, list):
        return [sourced(item) for item in node]
    if isinstance(node, str) and node.startswith("planner-choice "):
        return node[:-1] + f", ('source', {PLANNER_SOURCE!r})]"
    if not isinstance(node, dict):
        return node
    node = {key: sourced(value) for key, value in node.items()}
    if {"qid", "chosen"} <= node.keys():
        node["source"] = PLANNER_SOURCE
    if node.get("name") == PLANNER_COUNTER:
        node["help"] = PLANNER_COUNTER_HELP
        node["labels"] = [*node["labels"], "source"]
        for series in node["series"]:
            series["labels"]["source"] = PLANNER_SOURCE
    return node


def planner_back(path: Path, report: Report) -> Report:
    """*report* (read from *path*) as the parent of the planner re-cut
    wrote it: ``source`` put back, then the held leaves -- list items
    inserted first, each at its index in the parent's list, then every
    other moved leaf set."""
    name = _name(path)
    if name not in BEFORE_PLANNER:
        return report
    report = sourced(report)
    if name == EXPLAIN_JSON[0]:
        *parents, last = EXPLAIN_JSON[1]
        case = _at(report, parents)
        explained = json.loads(case[last])
        explained["choice"]["source"] = PLANNER_SOURCE
        case[last] = json.dumps(explained, indent=2, sort_keys=True) + "\n"
    moved = PLANNER_MOVED.get(name, {})
    for (*parents, index), value in moved.get("insert", ()):
        _at(report, parents).insert(index, value)
    for (*parents, last), value in moved.get("set", ()):
        _at(report, parents)[last] = value
    return report


@pytest.mark.parametrize("name", sorted(BEFORE_PLANNER))
def test_the_planner_recut_maps_back_to_the_parent_bytes(name):
    path = REPO / name
    text = _file_bytes(name, planner_back(path, json.loads(path.read_text())))
    assert _sha(text) == BEFORE_PLANNER[name]


def _replays_own(keys: list, value: Any, current: Report) -> bool:
    """Whether a held leaf is the replay's own: a plan-choice
    ``cache-hit`` event, a ``planner-choice`` event it marked ``cached``,
    a plan-cache counter or gauge, or the counter series it split by
    source."""
    if "events" in keys:
        return (value.startswith("cache-hit ") and "('cache', 'plan-choice')" in value) or (
            value.startswith("planner-choice ") and "('source', 'cached')" in value
        )
    if "counters" in keys:
        return keys[-1].startswith("plan_cache_")
    at = keys.index("series")
    family = _at(current, keys[:at])
    return family["name"] == PLANNER_COUNTER or (
        family["name"].startswith("serve_cache_")
        and _at(current, keys[: at + 2])["labels"] == {"cache": "plan"}
    )


def test_the_planner_recut_moved_only_the_replay():
    """Past ``source``, only the cost-mode serve runs moved, and only in
    what the replay itself wrote: no response, cost or latency."""
    from dataclasses import fields

    from repro.plan.enumerator import PlanChoice

    assert "source" not in {f.name for f in fields(PlanChoice)}
    assert PLANNER_MOVED.keys() == {
        "benchmarks/golden/metrics-chem-overlap.json",
        "tests/serve/transcripts.json",
    }
    for name, moved in PLANNER_MOVED.items():
        current = json.loads((REPO / name).read_text())
        for keys, value in [*moved.get("insert", ()), *moved.get("set", ())]:
            if name == "tests/serve/transcripts.json":
                assert keys[0] == "cost-planner", keys
            assert _replays_own(keys, value, current), (name, keys)
