"""The traced run: every layer probed from outside, on the workload's inputs.

A ``--trace 1`` run is separate from the end-to-end run.  It replays the
workload's pass with the ledger's spans around every call into a layer
(NTGA ops are hand-driven through the engine's own public steps), then
runs the probe suite below over the workload's graphs and query texts.

Probes are optional.  Each looks its entry point up by name when it
runs; a missing or raising entry point yields ``null`` with the reason
and never touches an end-to-end number, which comes from
:mod:`workloads` through the stable surface alone.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Any, Callable

import metrics
from calibrate import CAL_REF_S, kernel
from spans import Tracer
from workloads import (
    OUT_DIR,
    REPO_ROOT,
    SERVE_RATE,
    Clock,
    ColdCli,
    EngineOp,
    EngineWorkload,
    PassResult,
    ServeMix,
    Sizes,
    child_env,
    data_seed,
    engine_config,
    percentile,
    rows_digest,
)


def entry(path: str) -> Any:
    """``"package.module:name"`` -> the object, looked up now."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclasses.dataclass
class ProbeSet:
    """One graph of the workload with the query texts run against it."""

    dataset: str
    make_graph: Callable[[], Any]
    graph: Any
    queries: list[tuple[str, str]]


class Results:
    """Per-layer values; a failed probe leaves ``None`` and a reason."""

    def __init__(self) -> None:
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.kernel_samples: list[float] = []
        self.sample_kernel()

    def sample_kernel(self) -> None:
        self.kernel_samples.append(kernel())
        self._sampled = time.perf_counter()

    def probe(self, names: tuple[str, ...], call: Callable[[], dict[str, float]]) -> None:
        gc.collect()
        try:
            measured = call()
        except Exception as error:  # optional by contract: record, go on
            for name in names:
                self.values[name] = None
                self.reasons[name] = f"{type(error).__name__}: {error}"
        else:
            for name in names:
                self.values[name] = measured.get(name)
                if name not in measured:
                    self.reasons[name] = "probe did not report it"
        if time.perf_counter() - self._sampled > 0.5:
            self.sample_kernel()

    def factor(self) -> float:
        """Raw -> calibrated seconds, from every kernel sample of the run."""
        return CAL_REF_S / statistics.median(self.kernel_samples)


def timed(call: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def median_of(reps: int, call: Callable[[], float]) -> float:
    return statistics.median(call() for _ in range(reps))


# ---------------------------------------------------------------------------
# Traced ops
# ---------------------------------------------------------------------------


def job_kind(name: str) -> str:
    for kind in ("alpha-join", "agg-join", "final-join"):
        if kind in name:
            return kind
    return "other"


def analytical(text: str, tracer: Tracer | None = None) -> Any:
    parse_query = entry("repro:parse_query")
    from_select_query = entry("repro.core:from_select_query")
    if tracer is None:
        return from_select_query(parse_query(text), source_text=text)
    with tracer.span("sparql.parse", "sparql"):
        select = parse_query(text)
    with tracer.span("core.decompose", "core"):
        return from_select_query(select, source_text=text)


def hand_driven_ntga(tracer: Tracer, op_id: str, text: str, graph: Any, config: Any) -> Any:
    """``NTGAEngine.execute`` for the unsharded rule planner, step by
    step through the engine's own entry points, one span per step.
    Returns an object with ``rows`` and ``stats`` like an
    ExecutionReport."""
    HDFS = entry("repro.mapreduce:HDFS")
    MapReduceRunner = entry("repro.mapreduce:MapReduceRunner")
    load_triplegroups = entry("repro.ntga.physical:load_triplegroups")
    plan_rapid_analytics = entry("repro.ntga:plan_rapid_analytics")
    inject_default_rows = entry("repro.ntga.planner:inject_default_rows")
    active_representation = entry("repro.ntga.factorized:active_representation")
    resolve_representation = entry("repro.ntga.factorized:resolve_representation")
    collect_rows = entry("repro.ntga.engine:_collect_rows")
    with tracer.op(op_id):
        query = analytical(text, tracer)
        hdfs = HDFS(capacity=config.hdfs_capacity)
        with tracer.span("ntga.load", "ntga"):
            store = load_triplegroups(graph, hdfs)
        with tracer.span("ntga.plan", "ntga"):
            with active_representation(
                resolve_representation(config.representation), config.cost_model
            ):
                plan = plan_rapid_analytics(query, store)
        runner = MapReduceRunner(
            hdfs, config.cluster, config.cost_model, config.fault_plan, recovery=config.recovery
        )
        stats = None
        for index, job in enumerate(plan.jobs):
            if index == plan.final_join_index:
                with tracer.span("ntga.inject", "ntga"):
                    inject_default_rows(plan, hdfs)
            with tracer.span(f"mapreduce.job.{job_kind(job.name)}", "mapreduce") as span:
                stats = runner.run_workflow([job], stats=stats)
                span.attrs["records"] = stats.jobs[-1].input_records
        if plan.final_join_index is None:
            with tracer.span("ntga.inject", "ntga"):
                inject_default_rows(plan, hdfs)
        with tracer.span("mapreduce.finalize", "mapreduce"):
            runner.finalize(stats)
        with tracer.span("ntga.deliver", "ntga"):
            rows = collect_rows(hdfs, plan, query)

    return SimpleNamespace(rows=rows, stats=stats, cost_seconds=stats.total_cost)


def engine_layer(op: EngineOp) -> str:
    if op.config is not None and op.config.shards > 1:
        return "shard"
    if op.engine.startswith("hive"):
        return "hive"
    return "core" if op.engine == "reference" else "ntga"


def hand_drivable(op: EngineOp) -> bool:
    config = op.config
    return (
        op.engine == "rapid-analytics"
        and config is not None
        and config.shards == 1
        and config.planner in (None, "rule")
    )


def traced_engine_op(tracer: Tracer, op_id: str, op: EngineOp, graph: Any) -> Any:
    if hand_drivable(op):
        return hand_driven_ntga(tracer, op_id, op.text, graph, op.config)
    make_engine = entry("repro:make_engine")
    with tracer.op(op_id):
        query = analytical(op.text, tracer)
        with tracer.span(f"{op.engine}.execute", engine_layer(op)):
            return make_engine(op.engine).execute(query, graph, op.config)


def traced_pass(workload: Any, tracer: Tracer, index: int) -> PassResult:
    """The workload's pass again, decomposed; answers are checked too."""
    result = PassResult()
    tag = f"pass{index}"
    if isinstance(workload, EngineWorkload):
        for part, ops in workload.parts.items():
            for op in ops:
                report = _guarded(
                    lambda: traced_engine_op(
                        tracer, f"{tag}/{part}/{op.qid}", op, workload.graphs[op.dataset]
                    )
                )
                result.attempted += 1
                problem = workload.check(op, report)
                if problem is not None:
                    result.failures.append("traced " + problem)
    elif isinstance(workload, ColdCli):
        for part, arguments in workload.commands.items():
            with tracer.op(f"{tag}/{part}"):
                with tracer.span(f"cli.{part}", "cli"):
                    done = workload._spawn(arguments)
            result.attempted += 1
            problem = workload.check(part, done)
            if problem is not None:
                result.failures.append("traced " + problem)
    elif isinstance(workload, ServeMix):
        for phase in ("phase-a", "phase-b"):
            service = workload.service(phase)
            with tracer.op(f"{tag}/{phase}"):
                with tracer.span("serve.serve", "serve"):
                    responses = service.serve(workload.requests)
            result.attempted += len(responses)
            for response in responses:
                problem = workload.check_response(phase, response)
                if problem is not None:
                    result.failures.append("traced " + problem)
        for label, text in workload.texts:
            report = _guarded(
                lambda: hand_driven_ntga(
                    tracer, f"{tag}/solo/{label}", text, workload.graph, workload.cfg
                )
            )
            result.attempted += 1
            if isinstance(report, Exception):
                result.failures.append(f"traced solo {label}: raised {report}")
            elif rows_digest(report.rows) != workload.digests[label]:
                result.failures.append(f"traced solo {label}: rows differ")
    return result


def _guarded(call: Callable[[], Any]) -> Any:
    try:
        return call()
    except Exception as error:
        return error


# ---------------------------------------------------------------------------
# The probe suite (every workload, on its own inputs)
# ---------------------------------------------------------------------------


def probe_sets(workload: Any) -> list[ProbeSet]:
    if isinstance(workload, EngineWorkload):
        sets = []
        for dataset, graph in workload.graphs.items():
            seen: dict[str, str] = {}
            for ops in workload.parts.values():
                for op in ops:
                    if op.dataset == dataset:
                        seen.setdefault(op.qid, op.text)
            sets.append(
                ProbeSet(dataset, workload.graph_makers()[dataset], graph, list(seen.items()))
            )
        return sets
    if isinstance(workload, ColdCli):
        catalog = workload.program.CATALOG
        return [
            ProbeSet(
                "bsbm",
                workload.make_file_graph,
                workload.file_graph,
                [(qid, catalog[qid].sparql) for qid in ("MG1", "MG3", "G3")],
            )
        ]
    return [ProbeSet("chem", workload.make_graph, workload.graph, list(workload.texts))]


Probe = tuple[tuple[str, ...], Callable[[], dict[str, float]]]


def probe_suite(sets: list[ProbeSet], program: Any, tracer: Tracer, sizes: Sizes) -> list[Probe]:
    """(metric names, call) per probe, in the order they must run."""
    suite: list[Probe] = []

    def probe(*names: str) -> Callable[[Callable[[], dict[str, float]]], None]:
        return lambda call: suite.append((names, call))

    reps = sizes.probe_reps
    cfg = engine_config(program)
    decomposed: list[tuple[ProbeSet, str, str, Any]] = []

    def load_queries() -> list[tuple[ProbeSet, str, str, Any]]:
        """(set, qid, text, AnalyticalQuery); decomposed on first use so a
        broken front end fails each probe with its own reason."""
        if not decomposed:
            decomposed.extend(
                (probe_set, qid, text, analytical(text))
                for probe_set in sets
                for qid, text in probe_set.queries
            )
        return decomposed

    @probe("sparql.parse_s", "sparql.parse_queries_per_s", "core.decompose_s")
    def front_end() -> dict[str, float]:
        parse_query = entry("repro:parse_query")
        from_select_query = entry("repro.core:from_select_query")
        queries = load_queries()
        selects = [parse_query(text) for _, _, text, _ in queries]
        parse_s = median_of(
            max(reps, 3),
            lambda: timed(lambda: [parse_query(text) for _, _, text, _ in queries])[1],
        )
        decompose_s = median_of(
            max(reps, 3),
            lambda: timed(lambda: [from_select_query(select) for select in selects])[1],
        )
        return {
            "sparql.parse_s": parse_s,
            "sparql.parse_queries_per_s": len(queries) / parse_s,
            "core.decompose_s": decompose_s,
        }


    @probe("core.reference_s")
    def reference() -> dict[str, float]:
        engine = entry("repro:make_engine")("reference")
        queries = load_queries()
        return {
            "core.reference_s": median_of(
                reps,
                lambda: timed(
                    lambda: [engine.execute(query, s.graph) for s, _, _, query in queries]
                )[1],
            )
        }


    @probe("ntga.compose_s")
    def compose() -> dict[str, float]:
        build_composite_n = entry("repro.ntga:build_composite_n")
        patterns_overlap = entry("repro.ntga:patterns_overlap")
        OverlapError = entry("repro.errors:OverlapError")
        multi = [query for _, _, _, query in load_queries() if len(query.subqueries) > 1]

        def once() -> None:
            for query in multi:
                patterns = [subquery.pattern for subquery in query.subqueries]
                for left in range(len(patterns)):
                    for right in range(left + 1, len(patterns)):
                        patterns_overlap(patterns[left], patterns[right])
                try:
                    build_composite_n(query.subqueries)
                except OverlapError:
                    pass

        return {"ntga.compose_s": median_of(max(reps, 3), lambda: timed(once)[1])}


    # Cold layouts: each cold probe gets its own freshly generated graph,
    # because sizes and layouts are cached on the graph and its terms.
    generate_s: list[float] = []
    triples = sum(len(probe_set.graph) for probe_set in sets)

    def fresh() -> list[Any]:
        graphs, seconds = timed(lambda: [probe_set.make_graph() for probe_set in sets])
        generate_s.append(seconds)
        return graphs

    def cold_warm(path: str, cold_name: str, warm_name: str) -> dict[str, float]:
        load = entry(path)
        HDFS = entry("repro.mapreduce:HDFS")
        cold, warm = [], []
        for _ in range(reps):
            graphs = fresh()
            cold.append(timed(lambda: [load(graph, HDFS()) for graph in graphs])[1])
            warm.append(timed(lambda: [load(graph, HDFS()) for graph in graphs])[1])
        return {cold_name: statistics.median(cold), warm_name: statistics.median(warm)}

    probe("ntga.layout_cold_s", "ntga.layout_warm_s")(
        lambda: cold_warm(
            "repro.ntga.physical:load_triplegroups", "ntga.layout_cold_s", "ntga.layout_warm_s"
        )
    )
    probe("hive.layout_cold_s", "hive.layout_warm_s")(
        lambda: cold_warm(
            "repro.hive.tables:load_vertical_partitions", "hive.layout_cold_s", "hive.layout_warm_s"
        )
    )

    def partition(strategy: str) -> dict[str, float]:
        build_partition = entry("repro.shard.partition:build_partition")
        seconds, cut = [], 0.0
        for _ in range(reps):
            graphs = fresh()
            built, wall = timed(lambda: [build_partition(g, strategy, 4) for g in graphs])
            seconds.append(wall)
            cut = sum(p.cut_edges for p in built) / max(1, sum(p.total_edges for p in built))
        return {
            f"shard.partition_cold_s.{strategy}": statistics.median(seconds),
            "shard.cut_fraction": cut,
        }

    probe("shard.partition_cold_s.hash", "shard.cut_fraction")(lambda: partition("hash"))
    probe("shard.partition_cold_s.min-edge-cut")(lambda: partition("min-edge-cut"))

    @probe(
        "rdf.stats_profile_s",
        "rdf.ntriples_parse_triples_per_s",
        "mapreduce.size_accounting_cold_records_per_s",
        "mapreduce.size_accounting_warm_records_per_s",
    )
    def rdf_and_sizes() -> dict[str, float]:
        profile = entry("repro.rdf.stats:profile")
        serialize = entry("repro.rdf.ntriples:serialize")
        parse_graph = entry("repro.rdf.ntriples:parse_graph")
        estimate_total_size = entry("repro.mapreduce.cost:estimate_total_size")
        stats_s, parse_s, cold_s, warm_s = [], [], [], []
        for _ in range(reps):
            graphs = fresh()
            records = [list(graph) for graph in graphs]
            cold_s.append(timed(lambda: [estimate_total_size(r) for r in records])[1])
            warm_s.append(timed(lambda: [estimate_total_size(r) for r in records])[1])
            stats_s.append(timed(lambda: [profile(graph) for graph in graphs])[1])
            texts = [serialize(graph) for graph in graphs]
            parse_s.append(timed(lambda: [parse_graph(text) for text in texts])[1])
        return {
            "rdf.stats_profile_s": statistics.median(stats_s),
            "rdf.ntriples_parse_triples_per_s": triples / statistics.median(parse_s),
            "mapreduce.size_accounting_cold_records_per_s": triples / statistics.median(cold_s),
            "mapreduce.size_accounting_warm_records_per_s": triples / statistics.median(warm_s),
        }

    @probe("datasets.generate_s", "datasets.generate_triples_per_s")
    def generation() -> dict[str, float]:
        """Every fresh graph above was timed; this only reports."""
        return {
            "datasets.generate_s": statistics.median(generate_s),
            "datasets.generate_triples_per_s": triples / statistics.median(generate_s),
        }

    @probe("ntga.plan_s", "plan.enumerate_s", "plan.candidates")
    def planning() -> dict[str, float]:
        HDFS = entry("repro.mapreduce:HDFS")
        load_triplegroups = entry("repro.ntga.physical:load_triplegroups")
        plan_rapid_analytics = entry("repro.ntga:plan_rapid_analytics")
        active_representation = entry("repro.ntga.factorized:active_representation")
        resolve_representation = entry("repro.ntga.factorized:resolve_representation")
        enumerate_candidates = entry("repro.plan:enumerate_candidates")
        cached_profile = entry("repro.rdf.stats:cached_profile")
        queries = load_queries()
        stores = {id(s): load_triplegroups(s.graph, HDFS()) for s in sets}
        profiles = {id(s): cached_profile(s.graph) for s in sets}

        def plan_all() -> None:
            with active_representation(resolve_representation(None), cfg.cost_model):
                for probe_set, _, _, query in queries:
                    plan_rapid_analytics(query, stores[id(probe_set)])

        def enumerate_all() -> int:
            return sum(
                len(enumerate_candidates(query, stores[id(s)], profiles[id(s)], cfg)[0])
                for s, _, _, query in queries
            )

        return {
            "ntga.plan_s": median_of(max(reps, 3), lambda: timed(plan_all)[1]),
            "plan.enumerate_s": median_of(max(reps, 3), lambda: timed(enumerate_all)[1]),
            "plan.candidates": enumerate_all(),
        }


    @probe(
        "mapreduce.workflow_s",
        "mapreduce.job_s.alpha-join",
        "mapreduce.job_s.agg-join",
        "mapreduce.job_s.final-join",
        "mapreduce.records_per_s",
        "mapreduce.per_job_overhead_s",
        "ntga.deliver_s",
        "probe.hand_driven_op_s",
        "probe.whole_call_op_s",
    )
    def hand_driven() -> dict[str, float]:
        run_query = entry("repro:run_query")
        queries = load_queries()
        whole_s = []
        for rep in range(reps):
            gc.collect()
            by_hand = [
                hand_driven_ntga(tracer, f"probe{rep}/{s.dataset}/{qid}", text, s.graph, cfg)
                for s, qid, text, _ in queries
            ]
            gc.collect()
            whole, seconds = timed(
                lambda: [
                    run_query(text, s.graph, engine="rapid-analytics", config=cfg)
                    for s, _, text, _ in queries
                ]
            )
            whole_s.append(seconds)
            for (_, qid, _, _), ours, theirs in zip(queries, by_hand, whole):
                if ours.cost_seconds != theirs.cost_seconds or ours.rows != theirs.rows:
                    raise AssertionError(f"hand-driven {qid} differs from run_query")
        view = tracer.select("probe")
        by_name = view.self_time_by("name")
        jobs = [span for span in view.spans if span.name.startswith("mapreduce.job.")]
        workflow = sum(span.seconds for span in jobs)
        measured = {
            "mapreduce.workflow_s": workflow / reps,
            "mapreduce.records_per_s": sum(span.attrs["records"] for span in jobs) / workflow,
            "mapreduce.per_job_overhead_s": statistics.median(span.seconds for span in jobs),
            "ntga.deliver_s": by_name.get("ntga.deliver", 0.0) / reps,
            "probe.hand_driven_op_s": view.op_seconds() / reps,
            "probe.whole_call_op_s": statistics.median(whole_s),
        }
        for kind in ("alpha-join", "agg-join", "final-join"):
            measured[f"mapreduce.job_s.{kind}"] = (
                sum(span.seconds for span in jobs if span.name.endswith(kind)) / reps
            )
        return measured


    @probe(
        "ntga.flat_pass_x",
        "ntga.shuffle_reduction",
        "obs.trace_on_x",
        "obs.metrics_on_x",
        "obs.trace_spans",
        "shard.driver_overhead_x",
    )
    def variants() -> dict[str, float]:
        """The same NTGA pass five ways, interleaved."""
        run_query = entry("repro:run_query")
        tracing = entry("repro.obs:tracing")
        collecting = entry("repro.obs.metrics:collecting")
        queries = load_queries()
        flat_cfg = engine_config(program, representation="flat")
        sharded_cfg = engine_config(program, shards=4, partitioner="hash")

        def ra_pass(config: Any) -> list[Any]:
            return [
                run_query(text, s.graph, engine="rapid-analytics", config=config)
                for s, _, text, _ in queries
            ]

        ra_pass(sharded_cfg)  # partitions are set-up, not driver overhead
        walls: dict[str, list[float]] = {k: [] for k in ("plain", "flat", "trace", "metrics", "shard")}
        spans = shuffle_plain = shuffle_flat = 0
        for _ in range(max(reps, 2)):
            gc.collect()
            reports, wall = timed(lambda: ra_pass(cfg))
            walls["plain"].append(wall)
            shuffle_plain = sum(r.stats.total_shuffle_bytes for r in reports)
            gc.collect()
            reports, wall = timed(lambda: ra_pass(flat_cfg))
            walls["flat"].append(wall)
            shuffle_flat = sum(r.stats.total_shuffle_bytes for r in reports)
            gc.collect()
            with tracing() as recorder:
                walls["trace"].append(timed(lambda: ra_pass(cfg))[1])
            spans = len(recorder.spans)
            gc.collect()
            with collecting():
                walls["metrics"].append(timed(lambda: ra_pass(cfg))[1])
            gc.collect()
            walls["shard"].append(timed(lambda: ra_pass(sharded_cfg))[1])
        plain = statistics.median(walls["plain"])
        return {
            "ntga.flat_pass_x": statistics.median(walls["flat"]) / plain,
            "ntga.shuffle_reduction": 1.0 - shuffle_plain / shuffle_flat,
            "obs.trace_on_x": statistics.median(walls["trace"]) / plain,
            "obs.metrics_on_x": statistics.median(walls["metrics"]) / plain,
            "obs.trace_spans": spans,
            "shard.driver_overhead_x": statistics.median(walls["shard"]) / plain,
        }


    @probe("serve.hit_request_s", "serve.fingerprint_s")
    def serve_paths() -> dict[str, float]:
        QueryService = entry("repro.serve:QueryService")
        ServiceConfig = entry("repro.serve:ServiceConfig")
        ServeRequest = entry("repro.serve:ServeRequest")
        fingerprint_query = entry("repro.serve:fingerprint_query")
        hit_s, served = 0.0, 0
        for probe_set in sets:
            service = QueryService(
                probe_set.graph, ServiceConfig(engine_config=cfg, workers=2, batch_window=1.0)
            )
            stream = [
                ServeRequest(text=text, arrival=2.0 * index)
                for index, (_, text) in enumerate(probe_set.queries)
            ]
            service.serve(stream)  # fills the result cache
            replay = [
                ServeRequest(text=request.text, arrival=request.arrival + 1000.0)
                for request in stream
            ] * 5
            responses, wall = timed(lambda: service.serve(replay))
            if any(response.source != "result-cache" for response in responses):
                raise AssertionError("replay was not served from the result cache")
            hit_s += wall
            served += len(replay)
        texts = [text for _, text in (q for s in sets for q in s.queries)]
        fingerprint_s = median_of(
            max(reps, 3), lambda: timed(lambda: [fingerprint_query(t) for t in texts])[1]
        )
        return {
            "serve.hit_request_s": hit_s / served,
            "serve.fingerprint_s": fingerprint_s / len(texts),
        }


    @probe("cli.bare_python_s", "cli.import_s")
    def start_up() -> dict[str, float]:
        def spawn(code: str) -> float:
            return timed(
                lambda: subprocess.run(
                    [sys.executable, "-c", code], env=child_env(), cwd=REPO_ROOT, check=True
                )
            )[1]

        bare = median_of(max(reps, 3), lambda: spawn("pass"))
        imported = median_of(max(reps, 3), lambda: spawn("import repro.cli"))
        return {"cli.bare_python_s": bare, "cli.import_s": imported - bare}

    return suite


# ---------------------------------------------------------------------------
# Simulated-cost phases
# ---------------------------------------------------------------------------


def phase_costs(reports: list[tuple[Any, Any]], total_cost: float) -> dict[str, float]:
    """``CostModel.job_cost_phases`` over every job of the pass.  Shards
    run concurrently, so the sharded driver credits back all but the
    slowest shard's cost (``overlap_credit``); what the JobStats cannot
    re-derive lands in ``unattributed``.  By construction
    ``sum(phases) - overlap_credit + unattributed == sim.cost_s``."""
    phases = {name: 0.0 for name in ("map", "shuffle", "reduce", "materialize", "exchange")}
    overlap = 0.0
    for config, report in reports:
        if report.stats is None:
            continue
        overlap += report.stats.overlap_seconds
        clusters = [config.cluster]
        if config.shards > 1:
            clusters.append(
                dataclasses.replace(
                    config.cluster, nodes=max(1, config.cluster.nodes // config.shards)
                )
            )
        for job in report.stats.jobs:
            for cluster in clusters:
                priced = config.cost_model.job_cost_phases(
                    cluster,
                    input_bytes=job.input_bytes + job.side_input_bytes,
                    shuffle_bytes=job.shuffle_bytes,
                    output_bytes=job.output_bytes,
                    map_tasks=job.map_tasks,
                    reduce_tasks=job.reduce_tasks,
                    exchange_bytes=job.exchange_bytes,
                )
                if abs(sum(seconds for _, seconds in priced) - job.cost_seconds) < 1e-9:
                    break
            for name, seconds in priced:
                phases[name] += seconds
    measured = {f"sim.phase_cost_s.{name}": seconds for name, seconds in phases.items()}
    measured["sim.phase_cost_s.overlap_credit"] = overlap
    measured["sim.phase_cost_s.unattributed"] = total_cost - (sum(phases.values()) - overlap)
    return measured


# ---------------------------------------------------------------------------
# Owner extras
# ---------------------------------------------------------------------------


def serve_extras(workload: ServeMix, results: Results) -> None:
    def rate_ladder() -> dict[str, float]:
        measured = {}
        for tag, factor in (("r050", 0.5), ("r100", 1.0), ("r200", 2.0)):
            responses = workload.service("phase-a").serve(
                workload.make_requests(SERVE_RATE * factor)
            )
            latencies = [
                r.latency if r.latency is not None else float("inf") for r in responses
            ]
            measured[f"serve.sim_p95_s.{tag}"] = percentile(latencies, 0.95)
        return measured

    results.probe(
        ("serve.sim_p95_s.r050", "serve.sim_p95_s.r100", "serve.sim_p95_s.r200"), rate_ladder
    )

    def overhead() -> dict[str, float]:
        """Phase-A stream wall minus what its executed units cost solo."""
        solo: dict[str, list[float]] = {label: [] for label, _ in workload.texts}
        for _ in range(3):
            for label, text in workload.texts:
                solo[label].append(
                    timed(
                        lambda: workload.program.run_query(
                            text, workload.graph, engine="rapid-analytics", config=workload.cfg
                        )
                    )[1]
                )
        service = workload.service("phase-a")
        responses, stream_s = timed(lambda: service.serve(workload.requests))
        executed = sum(
            statistics.median(solo[response.label])
            for response in responses
            if response.source in ("solo", "batch")
        )
        return {"serve.overhead_s": stream_s - executed}

    results.probe(("serve.overhead_s",), overhead)


def growth_ladder(workload: Any, results: Results) -> None:
    """Log-log growth exponents, measured in a fresh process so that
    ``ru_maxrss`` after each ascending rung is that rung's peak."""
    names = tuple(metrics.OWNER_EXTRAS["bsbm-scale"])
    growth = tuple(name for name in names if name.startswith("growth."))

    def ladder() -> dict[str, float]:
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(os.path.dirname(os.path.abspath(__file__)), "probes.py"),
                "--growth",
                str(data_seed(workload.name, workload.seed)),
                ",".join(str(rung) for rung in workload.sizes.growth_rungs),
            ],
            env=child_env(),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(done.stderr.strip()[-300:])
        rungs = json.loads(done.stdout.strip().splitlines()[-1])
        sizes = [math.log(rung["triples"]) for rung in rungs]
        mean_x = sum(sizes) / len(sizes)
        measured = {}
        for name in growth:
            key = name[len("growth."):]
            values = [math.log(rung[key]) for rung in rungs]
            mean_y = sum(values) / len(values)
            measured[name] = sum(
                (x - mean_x) * (y - mean_y) for x, y in zip(sizes, values)
            ) / sum((x - mean_x) ** 2 for x in sizes)
        return measured

    results.probe(growth, ladder)


def high_water_mb() -> float:
    """Peak resident set of this process image.  ``ru_maxrss`` would do
    but for one thing: a forked child inherits its parent's high-water
    mark, and the traced run that starts the ladder is large."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def growth_child(seed: int, rungs: list[int]) -> None:
    """``probes.py --growth SEED R1,R2,..``: one JSON line of rung rows."""
    from workloads import load_program

    program = load_program()
    HDFS = entry("repro.mapreduce:HDFS")
    load_triplegroups = entry("repro.ntga.physical:load_triplegroups")
    load_vertical_partitions = entry("repro.hive.tables:load_vertical_partitions")
    profile = entry("repro.rdf.stats:profile")
    build_partition = entry("repro.shard.partition:build_partition")
    cfg = engine_config(program)
    sharded = engine_config(program, shards=4, partitioner="hash")
    texts = [program.CATALOG[qid].sparql for qid in ("MG1", "MG3")]
    rows = []
    for products in rungs:
        config = program.bsbm.BSBMConfig(
            products=products, vendors=40, offers_per_product=4, seed=seed
        )
        graph, generate_s = timed(lambda: program.bsbm.generate(config))
        row = {"products": products, "triples": len(graph), "datasets.generate": generate_s}
        # One fresh graph per cold layout, as in the probe suite.
        row["ntga.layout"] = timed(lambda: load_triplegroups(graph, HDFS()))[1]
        row["hive.layout"] = timed(
            lambda: load_vertical_partitions(program.bsbm.generate(config), HDFS())
        )[1]
        row["rdf.stats"] = timed(lambda: profile(graph))[1]
        row["shard.partition"] = timed(
            lambda: build_partition(program.bsbm.generate(config), "hash", 4)
        )[1]
        for key, engine, config_ in (
            ("ntga.pass", "rapid-analytics", cfg),
            ("hive.pass", "hive-naive", cfg),
            ("sharded.pass", "rapid-analytics", sharded),
        ):
            def run(engine: str = engine, config_: Any = config_) -> None:
                for text in texts:
                    program.run_query(text, graph, engine=engine, config=config_)

            run()  # warm layouts; the rung measures the warm pass
            gc.collect()
            row[key] = timed(run)[1]
        row["peak_rss"] = high_water_mb()
        rows.append(row)
        del graph
        gc.collect()
    print(json.dumps(rows))


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced_run(workload: Any, sizes: Sizes, clock: Clock) -> dict[str, Any]:
    """Everything a ``--trace 1`` run measures.  *workload* is already
    generated, warmed up and has its oracle."""
    results = Results()
    tracer = Tracer()
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    untraced_s, traced_s = [], []
    for index in range(sizes.traced_passes):
        outcome = workload.run_pass(clock)
        untraced.append(outcome)
        untraced_s.append(sum(outcome.raw.values()))
        results.sample_kernel()
        gc.collect()
        before = len(tracer.spans)
        traced.append(traced_pass(workload, tracer, index))
        traced_s.append(
            sum(span.seconds for span in tracer.spans[before:] if span.parent is None)
        )
        results.sample_kernel()

    for names, call in probe_suite(probe_sets(workload), workload.program, tracer, sizes):
        results.probe(names, call)
    if isinstance(workload, ServeMix):
        serve_extras(workload, results)
    if workload.name == "bsbm-scale":
        growth_ladder(workload, results)

    passes = tracer.select("pass")
    values = results.values
    values["ledger.trace_overhead_x"] = statistics.median(traced_s) / statistics.median(untraced_s)
    values["ledger.self_time_coverage"] = passes.coverage()
    values["ledger.trace_spans"] = len(tracer.spans)
    values["host.nproc"] = os.cpu_count() or 1
    exact = dict(untraced[0].exact)
    results.probe(
        tuple(f"sim.phase_cost_s.{p}" for p in (
            "map", "shuffle", "reduce", "materialize", "exchange", "overlap_credit",
            "unattributed",
        )),  # fmt: skip
        lambda: phase_costs(workload.reports, exact.get("sim.cost_s", 0.0)),
    )
    values["host.cal_s"] = statistics.median(results.kernel_samples + clock.calibrator.samples)

    attempted = sum(p.attempted for p in untraced + traced)
    failures = [f for p in untraced + traced for f in p.failures]
    for other in untraced[1:]:
        if other.exact != untraced[0].exact:
            failures.append("exact metrics differ between two passes of one run")
    values["error_rate"] = len(failures) / attempted
    for name in (
        "sim.cost_s", "sim.cycles", "sim.map_only_cycles", "sim.input_records",
        "sim.answer_rows", "sim.shuffle_bytes", "sim.materialized_bytes",
        "sim.hdfs_bytes_read", "sim.exchange_bytes",
    ):  # fmt: skip
        values[name] = exact.get(name, 0)
    for name in metrics.OWNER_EXTRAS[workload.name]:
        if name in exact:
            values[name] = exact[name]
    if isinstance(workload, ColdCli):
        for part in workload.commands:
            values[f"cli.cmd_s.{part}"] = statistics.median(p.raw[part] for p in untraced)

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload.name}.trace.jsonl")
    tracer.write(trace_path)
    factor = results.factor()
    by_layer = passes.self_time_by("layer")
    by_name = passes.self_time_by("name")
    return {
        "values": values,
        "reasons": results.reasons,
        "factor": factor,
        "exact": exact,
        "attempted": attempted,
        "failures": failures,
        "trace_file": os.path.relpath(trace_path, REPO_ROOT),
        "self_time_by_layer": {
            layer: seconds / sizes.traced_passes for layer, seconds in sorted(by_layer.items())
        },
        "self_time_by_span": {
            name: seconds / sizes.traced_passes for name, seconds in sorted(by_name.items())
        },
        "op_wall_s": passes.op_seconds() / sizes.traced_passes,
    }


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--growth":
        growth_child(int(sys.argv[2]), [int(rung) for rung in sys.argv[3].split(",")])
    else:
        sys.exit("probes.py is run by run.py; see ledger/README.md")
