"""Self-test of the perf ledger.

    python3 ledger/test_ledger.py --smoke     # < 20 s, the small constants
    python3 -m pytest ledger/test_ledger.py   # the same checks under pytest

Checks the ledger, not the program: that every declared metric is
emitted once with a unit and a finite value, that generators are
deterministic, that serve-mix really exercises each path, that a missing
probe entry point costs only that probe, that the hand-driven NTGA steps
account for the whole call, and that the gate's protocol, the budget
guard and ``--compare`` behave.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(LEDGER_DIR), "src"))

import metrics  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SIZES = workloads.SMOKE
SEED = 5
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@functools.lru_cache(maxsize=None)
def end_to_end(name: str) -> dict:
    return run.child_end_to_end(name, SEED, 0.1, SIZES)


@functools.lru_cache(maxsize=None)
def prepared(name: str):
    """A workload that is generated, warmed up and has its oracle."""
    workload, _, _ = run.set_up(name, SEED, SIZES, workloads.Clock(), 1)
    return workload


# -- declarations ---------------------------------------------------------------


def test_benchmark_json_is_well_formed():
    bench = metrics.load_benchmark()
    assert sorted(bench) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]  # fmt: skip
    assert bench["paths"] == ["ledger"] and bench["command"][-1] == "ledger/run.py"
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in bench["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    setup = metrics.end_to_end_specs()["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in bench["workloads"]:
        assert workload["why"] == workloads.WHY[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_per_layer_metric_is_annotated():
    declared = set(metrics.per_layer_specs())
    assert declared == set(metrics.PER_LAYER_NOTES)
    layers = {note.layer for note in metrics.PER_LAYER_NOTES.values()}
    modules = set(os.listdir(os.path.join(os.path.dirname(LEDGER_DIR), "src", "repro")))
    assert layers - {"host", "ledger"} <= {m.removesuffix(".py") for m in modules}
    for extras in metrics.OWNER_EXTRAS.values():
        assert all(NAME.match(name) and UNIT.match(unit) for name, (unit, _) in extras.items())
        assert not set(extras) & declared


# -- generators -----------------------------------------------------------------


def test_generators_are_deterministic_per_seed_and_differ_across_seeds():
    program = workloads.load_program()
    for cls in (workloads.BsbmScale, workloads.CatalogSweep):
        first, again, other = (
            {name: make() for name, make in cls(program, SIZES, seed).graph_makers().items()}
            for seed in (SEED, SEED, SEED + 1)
        )
        for dataset in first:
            assert list(first[dataset]) == list(again[dataset])
            assert list(first[dataset]) != list(other[dataset])
            # the seed changes values, not the amount of work
            assert abs(len(first[dataset]) - len(other[dataset])) <= 0.05 * len(first[dataset])
    assert workloads.serve_stream(SEED, 200) == workloads.serve_stream(SEED, 200)
    stream, other = workloads.serve_stream(SEED, 200), workloads.serve_stream(SEED + 1, 200)
    assert [rank for rank, _ in stream] == [rank for rank, _ in other], "order is frozen"
    assert [at for _, at in stream] != [at for _, at in other]
    counts = workloads.zipf_counts(400, 14)
    assert sum(counts) == 400 and counts == sorted(counts, reverse=True) and counts[0] == 123
    assert len({text for _, text in workloads.serve_texts(program.CATALOG)}) == 14
    orders = []
    for seed in (SEED, SEED, SEED + 1):
        cli = workloads.ColdCli(program, SIZES, seed)
        parts = list(metrics.OWNER_EXTRAS["cold-cli"])
        cli._order.shuffle(parts)
        orders.append(parts)
    assert orders[0] == orders[1] != orders[2]


# -- end-to-end runs --------------------------------------------------------------


def test_end_to_end_emits_every_declared_metric():
    declared = metrics.end_to_end_specs()
    for name in workloads.WORKLOADS:
        result = end_to_end(name)
        assert result["correct"], result["failures"]
        assert result["attempted"] > 0 and result["failed"] == 0
        line = run.gate_line(result, declared)
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert set(line["metrics"]) == set(declared)
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"]
            assert metrics.is_finite(entry["value"]) and entry["value"] > 0, (name, metric)
        assert result["exact"]["sim.cost_s"] > 0
        json.dumps(result)


def test_serve_mix_exercises_every_path():
    exact = end_to_end("serve-mix")["exact"]
    for counter in (
        "serve.result_cache_hits", "serve.result_cache_evictions", "serve.batch_merges",
        "serve.dedup_requests", "serve.retries",
    ):  # fmt: skip
        assert exact[counter] > 0, counter
    assert exact["serve.units_executed.b"] >= exact["serve.units_executed.a"]
    # the backlog does not grow at the frozen rate
    assert exact["serve.sim_latency_last_s"] <= 1.5 * exact["serve.sim_latency_first_s"]


# -- traced run and probes ---------------------------------------------------------


def test_traced_run_emits_every_per_layer_metric():
    workload = prepared("bsbm-scale")
    traced = probes.traced_run(workload, SIZES, workloads.Clock())
    assert not traced["failures"], traced["failures"]
    values = traced["values"]
    expected = set(metrics.per_layer_specs()) | set(metrics.OWNER_EXTRAS["bsbm-scale"])
    assert expected <= set(values), sorted(expected - set(values))
    for name in expected:
        assert metrics.is_finite(values[name]), (name, values[name], traced["reasons"].get(name))
    assert values["error_rate"] == 0
    phases = sum(v for k, v in values.items() if k.startswith("sim.phase_cost_s."))
    phases -= 2 * values["sim.phase_cost_s.overlap_credit"]
    assert abs(phases - values["sim.cost_s"]) < 1e-6 * values["sim.cost_s"]
    assert values["ledger.self_time_coverage"] >= 0.9
    layers = traced["self_time_by_layer"]
    assert {"ntga", "mapreduce", "hive", "shard", "sparql", "core"} <= set(layers)
    assert abs(sum(layers.values()) - traced["op_wall_s"]) < 1e-6
    with open(os.path.join(workloads.REPO_ROOT, traced["trace_file"]), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {"id", "parent", "op", "name", "layer", "start", "end"} <= set(spans[0])
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None:
            assert by_id[span["parent"]]["op"] == span["op"]


def test_missing_probe_entry_point_costs_only_that_probe():
    import repro.serve

    workload = prepared("bsbm-scale")
    before = workload.run_pass(workloads.Clock())
    suite = probes.probe_suite(probes.probe_sets(workload), workload.program, Tracer(), SIZES)
    chosen = [p for p in suite if p[0][0] in ("serve.hit_request_s", "core.reference_s")]
    assert len(chosen) == 2
    results = probes.Results()
    saved = repro.serve.fingerprint_query
    del repro.serve.fingerprint_query
    try:
        for names, call in chosen:
            results.probe(names, call)
        after = workload.run_pass(workloads.Clock())
    finally:
        repro.serve.fingerprint_query = saved
    for name in ("serve.hit_request_s", "serve.fingerprint_s"):
        assert results.values[name] is None
        assert "fingerprint_query" in results.reasons[name]
        assert metrics.single(None, "s", results.reasons[name])["reason"] == results.reasons[name]
    assert metrics.is_finite(results.values["core.reference_s"])
    assert not after.failures and after.exact == before.exact
    assert after.cal.keys() == before.cal.keys() and all(v > 0 for v in after.cal.values())


def test_hand_driven_ntga_accounts_for_the_whole_call():
    workload = prepared("bsbm-scale")
    program, graph = workload.program, workload.graphs["bsbm"]
    cfg = workloads.engine_config(program)
    texts = [op.text for op in workload.parts["ntga"]]
    tracer = Tracer()
    by_hand, whole = [], []
    for rep in range(5):
        start = time.perf_counter()
        ours = [
            probes.hand_driven_ntga(tracer, f"t{rep}/{i}", text, graph, cfg)
            for i, text in enumerate(texts)
        ]
        middle = time.perf_counter()
        theirs = [program.run_query(t, graph, engine="rapid-analytics", config=cfg) for t in texts]
        whole.append(time.perf_counter() - middle)
        by_hand.append(middle - start)
        for mine, reference in zip(ours, theirs):
            assert mine.cost_seconds == reference.cost_seconds and mine.rows == reference.rows
    assert abs(min(by_hand) / min(whole) - 1.0) <= 0.05, (min(by_hand), min(whole))
    spans = sum(s.seconds for s in tracer.spans if s.parent is not None and s.op.startswith("t0/"))
    roots = sum(s.seconds for s in tracer.spans if s.parent is None and s.op.startswith("t0/"))
    assert spans >= 0.95 * roots


# -- tooling -----------------------------------------------------------------------


def ledger_of(*names: str) -> dict:
    return {
        "schema": metrics.SCHEMA,
        "workloads": {name: {"end_to_end": copy.deepcopy(end_to_end(name))} for name in names},
    }


def test_compare_verdicts():
    base = ledger_of("bsbm-scale")
    assert all(row[-1] in ("ok", "info") for row in run.compare_rows(base, base))
    slow = copy.deepcopy(base)
    entry = slow["workloads"]["bsbm-scale"]["end_to_end"]["metrics"]["ntga_s"]
    entry["value"] *= 1.5
    entry["iqr"] = base["workloads"]["bsbm-scale"]["end_to_end"]["metrics"]["ntga_s"]["iqr"] = 0.0
    verdicts = {row[1]: row[-1] for row in run.compare_rows(base, slow)}
    assert verdicts["ntga_s"] == "regressed" and verdicts["error_rate"] == "ok"
    noisy = copy.deepcopy(slow)
    noisy["workloads"]["bsbm-scale"]["end_to_end"]["metrics"]["ntga_s"].update(
        iqr=entry["value"], n=4
    )
    verdicts = {row[1]: row[-1] for row in run.compare_rows(base, noisy)}
    assert verdicts["ntga_s"] == "unresolved"
    drift = copy.deepcopy(base)
    drift["workloads"]["bsbm-scale"]["end_to_end"]["exact"]["sim.cycles"] += 1
    verdicts = {row[1]: row[-1] for row in run.compare_rows(base, drift)}
    assert verdicts["sim.cycles"] == "regressed"
    with tempfile.TemporaryDirectory() as scratch:
        paths = []
        for tag, ledger in (("a", base), ("b", drift)):
            paths.append(os.path.join(scratch, f"{tag}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(ledger, handle)
        with redirect_stdout(io.StringIO()) as printed:
            assert run.main(["--compare", paths[0], paths[0]]) == 0
            assert run.main(["--compare", paths[0], paths[1]]) == 1
    assert "regressed" in printed.getvalue()


def test_budget_guard_aborts_instead_of_hanging():
    sizes = dataclasses.replace(SIZES, overhead_budget_s=0.02)
    with redirect_stdout(io.StringIO()) as printed:
        started = time.perf_counter()
        assert run.spawn_child("end_to_end", "bsbm-scale", SEED, 0.02, sizes) is None
    assert time.perf_counter() - started < 5
    assert "ABORTED bsbm-scale" in printed.getvalue()


def test_gate_protocol_and_bare_directory():
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--workload", "bsbm-scale",
        "--seed", "3", "--seconds", "0.1", "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command + ["--smoke"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and set(line["metrics"]) == set(metrics.end_to_end_specs())
    # With nothing but BENCHMARK.json and ledger/ there is no program to
    # measure: non-zero exit, no result object.
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(metrics.BENCHMARK_JSON, bare)
        shutil.copytree(
            LEDGER_DIR,
            os.path.join(bare, "ledger"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        command[1] = os.path.join(bare, "ledger", "run.py")
        done = subprocess.run(command, capture_output=True, text=True, cwd=bare, timeout=120)
        assert done.returncode != 0
        assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ---------------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv not in ([], ["--smoke"]):
        sys.exit("usage: test_ledger.py [--smoke]   (the smoke size is the only size)")
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    started = time.perf_counter()
    failed = 0
    for name, test in tests:
        before = time.perf_counter()
        try:
            test()
        except Exception as error:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name} ({time.perf_counter() - before:.1f}s)")
    print(f"{len(tests) - failed}/{len(tests)} passed in {time.perf_counter() - started:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
