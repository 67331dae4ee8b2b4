"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — execute a catalog query (or a SPARQL file) on one engine
* ``compare``  — run a query on all four engines and tabulate
* ``explain``  — show the decomposition and MR plan
* ``bench``    — regenerate one of the paper's tables/figures
* ``serve``    — simulate the concurrent query service on a workload
* ``catalog``  — list the workload queries
* ``generate`` — write a synthetic dataset as N-Triples
* ``stats``    — profile a dataset (``--json`` for machine-readable)
* ``trace``    — inspect/export a ``--trace`` JSONL execution trace

``run``, ``compare``, and ``bench`` accept ``--trace PATH`` to record a
structured execution trace (``repro-trace/v1`` JSONL; see
``docs/observability.md``) which ``repro trace summary|tree|export``
then reads.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from repro import ambient
from repro.ambient import knob_overrides
from repro.bench.catalog import CATALOG, get_query
from repro.bench.harness import EXPERIMENTS, paper_experiment, run_paper_experiment
from repro.bench.reporting import render_cost_table, render_gains_table
from repro.core.engines import (
    ENGINE_FACTORIES,
    PAPER_ENGINES,
    make_engine,
    to_analytical,
)
from repro.core.explain import explain
from repro.core.results import EngineConfig, check_supported
from repro.datasets import generate as generate_dataset
from repro.errors import (
    CheckpointError,
    ReproError,
    ServeError,
    ShardError,
    WorkflowAbortedError,
)
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan
from repro.rdf import ntriples
from repro.rdf.graph import Graph

_DEFAULT_PRESETS = {"bsbm": "500k", "chem": "paper", "pubmed": "paper"}


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "data", None):
        with open(args.data, encoding="utf-8") as handle:
            return ntriples.parse_graph(handle)
    dataset = args.dataset
    preset = args.preset or _DEFAULT_PRESETS[dataset]
    return generate_dataset(dataset, preset)


def _resolve_query_text(args: argparse.Namespace) -> tuple[str, str]:
    """Returns (query id or file name, SPARQL text)."""
    if args.query in CATALOG:
        return args.query, get_query(args.query).sparql
    with open(args.query, encoding="utf-8") as handle:
        return args.query, handle.read()


def _infer_dataset(args: argparse.Namespace) -> None:
    if args.dataset is None:
        if args.query in CATALOG:
            args.dataset = get_query(args.query).dataset
        else:
            args.dataset = "bsbm"


def _format_rows(rows, limit: int) -> str:
    lines = []
    for row in sorted(rows, key=str)[:limit]:
        rendered = ", ".join(
            f"{v.name}={t.n3()}" for v, t in sorted(row.items(), key=lambda kv: kv[0].name)
        )
        lines.append("  " + rendered)
    if len(rows) > limit:
        lines.append(f"  ... ({len(rows) - limit} more rows)")
    return "\n".join(lines)


def _rows_to_csv(rows) -> str:
    """Render rows as CSV with a union-of-variables header."""
    import csv
    import io

    names: list[str] = []
    for row in rows:
        for variable in row:
            if variable.name not in names:
                names.append(variable.name)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(names)
    for row in sorted(rows, key=str):
        by_name = {variable.name: term for variable, term in row.items()}
        writer.writerow(
            [by_name[name].n3() if name in by_name else "" for name in names]
        )
    return buffer.getvalue()


@contextmanager
def _tracing_to(path: str | None) -> Iterator[None]:
    """Record a ``repro-trace/v1`` trace of the wrapped work to *path*
    (no-op when *path* is None)."""
    if path is None:
        yield
        return
    from repro import obs
    from repro.obs.sink import write_trace

    with obs.tracing() as recorder:
        yield
    write_trace(recorder, path)
    print(f"wrote trace {path}", file=sys.stderr)


def _engine_config(args: argparse.Namespace) -> EngineConfig | None:
    """The EngineConfig ``run`` and ``explain`` hand ``--engine``: the
    knob flags, ``--shards N[,strategy]`` (a bare ``N`` means the default
    hash partition) and ``run``'s ``--faults``/``--recover`` — None when
    none is given, so the default-config path is untouched.  A bad value,
    or a combination the engine does not support, is a ``ReproError``."""
    fields: dict = knob_overrides(args)
    if args.shards:
        from repro.shard.partition import parse_shard_spec

        fields["shards"], strategies = parse_shard_spec(args.shards)
        if len(strategies) == 1:
            fields["partitioner"] = strategies[0]
    if getattr(args, "faults", None):
        fields["fault_plan"] = FaultPlan.from_spec(args.faults)
    if getattr(args, "recover", None) is not None:
        fields["recovery"] = RecoveryPolicy(max_resubmissions=args.recover)
    config = EngineConfig(**fields) if fields else None
    check_supported(args.engine, config)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        config = _engine_config(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _infer_dataset(args)
    qid, sparql = _resolve_query_text(args)
    graph = _load_graph(args)
    with _tracing_to(args.trace):
        with obs.span(qid, "query", {"qid": qid}):
            report = make_engine(args.engine).execute(
                to_analytical(sparql), graph, config
            )
    if args.format == "csv":
        print(_rows_to_csv(report.rows), end="")
        return 0
    print(f"{len(report.rows)} rows")
    print(_format_rows(report.rows, args.limit))
    print(
        f"\nengine={report.engine} cycles={report.cycles} "
        f"(map-only {report.map_only_cycles}) simulated-cost={report.cost_seconds:.1f}s"
    )
    if report.plan_choice is not None:
        choice = report.plan_choice
        print(
            f"planner={choice.mode} chose {choice.chosen!r} "
            f"(priced {choice.chosen_cost:.1f}s, {choice.source})"
        )
    if args.verbose and report.stats is not None:
        print()
        print(report.stats.describe())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        overrides = knob_overrides(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _infer_dataset(args)
    qid, sparql = _resolve_query_text(args)
    graph = _load_graph(args)
    analytical = to_analytical(sparql)
    print(f"{'engine':18s} {'rows':>6s} {'cycles':>7s} {'map-only':>9s} {'cost':>9s}")
    with _tracing_to(args.trace), ambient.installed(**overrides):
        with obs.span(qid, "query", {"qid": qid}):
            for engine in PAPER_ENGINES:
                report = make_engine(engine).execute(analytical, graph)
                print(
                    f"{engine:18s} {len(report.rows):6d} {report.cycles:7d} "
                    f"{report.map_only_cycles:9d} {report.cost_seconds:8.1f}s"
                )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    try:
        config = _engine_config(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _infer_dataset(args)
    _, sparql = _resolve_query_text(args)
    # Hive plans always need data (runtime map-join decisions); the
    # RAPIDAnalytics planner section needs it too — the candidates are
    # priced against the graph's statistics, and the sharding section
    # against its partition.  --plan-only skips the graph and shows
    # just the structural plan.
    graph = None
    needs_graph = (
        args.run
        or args.engine in ("hive-naive", "hive-mqo")
        or (args.engine == "rapid-analytics" and not args.plan_only)
        or (args.shards and not args.plan_only)
    )
    if needs_graph:
        graph = _load_graph(args)
    run = None
    if args.run:
        run = make_engine(args.engine).execute(
            to_analytical(sparql), graph, config
        )
    if args.json:
        import json

        from repro.core.explain import explain_report

        report = explain_report(
            sparql, engine=args.engine, graph=graph, config=config, run=run
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(explain(sparql, engine=args.engine, graph=graph, config=config))
    if run is not None:
        from repro.core.explain import explain_report, render_estimated_vs_actual

        report = explain_report(
            sparql, engine=args.engine, graph=graph, config=config, run=run
        )
        comparison = report["estimated_vs_actual"]
        if comparison:
            print()
            print(render_estimated_vs_actual(comparison))
        print(
            f"\nexecuted: {len(run.rows)} rows, {run.cycles} MR cycles, "
            f"simulated cost {run.cost_seconds:.1f}s"
        )
    return 0


def _report_mode(args: argparse.Namespace, kind, produce) -> int:
    """The one driver behind every report-producing mode: trace →
    produce → render → ``--output`` → ``--golden`` → invariants → exit
    code.  The golden is diffed against the report just produced, so a
    mode runs its experiment once."""
    from repro.report import check_golden, load_report, write_report

    if args.golden:
        # Before the experiment: a malformed or foreign golden is a
        # usage error, not something to find out after a seven-second soak.
        try:
            load_report(args.golden, kind.schema)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    with _tracing_to(args.trace):
        report = produce()
    print(kind.render(report))
    if args.output:
        print(f"wrote {write_report(report, args.output)}")
    if args.golden:
        problems = check_golden(args.golden, report)
        for problem in problems:
            print(f"{kind.label} mismatch: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{kind.label} ok: {args.golden}")
    violations = kind.violations(report) if kind.violations is not None else []
    for violation in violations:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _catalog_qids(text: str) -> list[str]:
    """The query list of a catalog A/B mode: ``mg`` for the default
    slice, else a comma-separated list of distinct catalog qids."""
    from repro.bench.arms import DEFAULT_QUERIES

    if text == "mg":
        return list(DEFAULT_QUERIES)
    qids = [qid.strip() for qid in text.split(",") if qid.strip()]
    unknown = [qid for qid in qids if qid not in CATALOG]
    if unknown:
        raise ReproError(f"unknown catalog queries {unknown}")
    if not qids:
        raise ReproError(f"no catalog queries in {text!r}")
    repeated = sorted({qid for qid in qids if qids.count(qid) > 1})
    if repeated:
        raise ReproError(f"catalog queries listed more than once: {repeated}")
    return qids


# One function per ``repro bench`` report mode: parse the mode's spec
# (a ReproError here is a usage error, exit 2) and name its producer.


def _faults_mode(args: argparse.Namespace):
    """``--faults SPEC``: the chaos soak's one-plan, no-recovery case —
    the experiment fault-free and under the seeded plan."""
    from repro.bench import chaos

    paper_experiment(args.experiment, "fault experiment")
    plans = [FaultPlan.from_spec(args.faults)]
    return chaos.KIND, lambda: chaos.chaos_soak_report(args.experiment, plans)


def _chaos_mode(args: argparse.Namespace):
    """``--chaos seeds=N,rate=p``: soak across a seed matrix with
    checkpointed recovery; every resumed run must stay bit-identical to
    the fault-free run."""
    from repro.bench import chaos

    paper_experiment(args.experiment, "chaos experiment")
    spec = chaos.ChaosSpec.from_spec(args.chaos)
    return chaos.KIND, lambda: chaos.chaos_soak_report(
        args.experiment, spec.plans(), spec.policy()
    )


def _planner_ab_mode(args: argparse.Namespace):
    """``--planner-ab``: rule-vs-cost planner A/B on rapid-analytics; the
    cost plan must never lose, with identical answers."""
    from repro.plan import ab

    qids = _catalog_qids(args.experiment)
    return ab.KIND, lambda: ab.planner_ab_report(qids)


def _calibration_mode(args: argparse.Namespace):
    """``--calibration``: per-query estimate-vs-actual q-error stats
    under the cost planner, with drift verdicts."""
    from repro.bench import calibration

    qids = _catalog_qids(args.experiment)
    return calibration.KIND, lambda: calibration.calibration_report(qids)


def _shards_mode(args: argparse.Namespace):
    """``--shards N[,strategy]``: unsharded baseline vs each partitioning
    strategy at N shards — exchange bytes, edge cuts, costs."""
    from repro.shard import ab
    from repro.shard.partition import parse_shard_spec

    shards, strategies = parse_shard_spec(args.shards)
    qids = _catalog_qids(args.experiment)
    return ab.KIND, lambda: ab.shard_ab_report(qids, shards, strategies)


_REPORT_MODES = {
    "faults": _faults_mode,
    "chaos": _chaos_mode,
    "planner_ab": _planner_ab_mode,
    "calibration": _calibration_mode,
    "shards": _shards_mode,
}


def cmd_bench(args: argparse.Namespace) -> int:
    modes = [flag for flag in _REPORT_MODES if getattr(args, flag)]
    flags = [mode.replace("_", "-") for mode in modes]
    try:
        if len(modes) > 1:
            raise ReproError("--" + " and --".join(flags) + " are mutually exclusive")
        if args.representation is not None and modes:
            # --faults/--chaos pin their goldens under the default
            # representation.  An override would silently change what
            # those modes certify.
            raise ReproError(f"--representation cannot be combined with --{flags[0]}")
        overrides = knob_overrides(args)
        if modes:
            kind, produce = _REPORT_MODES[modes[0]](args)
        elif args.output or args.golden:
            raise ReproError(
                "--output and --golden require a report mode (--faults, "
                "--chaos, --planner-ab, --calibration or --shards)"
            )
        else:
            paper_experiment(args.experiment)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if modes:
        return _report_mode(args, kind, produce)
    with _tracing_to(args.trace), ambient.installed(**overrides):
        result = run_paper_experiment(args.experiment)
    if result.mismatches:
        print(f"WARNING: result mismatches: {result.mismatches}", file=sys.stderr)
    print(render_cost_table(result))
    if len(result.engines) > 1:
        print()
        print(render_gains_table(result, baseline=result.engines[0]))
    return 0


def _metrics_out_format(path: str) -> str:
    """Infer the ``--metrics`` output format from the path's extension;
    a one-line :class:`ServeError` (exit 2) on anything else."""
    from pathlib import Path

    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".prom", ".txt"):
        return "prometheus"
    raise ServeError(
        f"invalid --metrics path {path!r}: expected a .json "
        "(repro-metrics/v1 snapshot), .prom, or .txt (Prometheus "
        "exposition) extension"
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve --workload seeds=N,clients=C,mix=...``: drive the
    concurrent query service with a seeded arrival process and report
    latency percentiles, cache hit rates, the SLO verdict, and the
    batched-vs-unbatched cost savings (repro-serve-workload/v2).
    ``--metrics`` additionally collects a repro-metrics/v1 snapshot;
    ``--faults`` switches to the resilience A/B
    (repro-serve-resilience/v1), optionally tuned by ``--resilience``."""
    from repro.serve import ResilienceConfig, WorkloadSpec, resilience, workload
    from repro.serve.slo import SLOSpec

    snapshot = None
    try:
        spec = WorkloadSpec.from_spec(args.workload)
        slo = SLOSpec.from_spec(args.slo) if args.slo else None
        if args.faults:
            if args.metrics:
                raise ReproError(
                    "--metrics cannot be combined with --faults "
                    "(the A/B runs two services per seed)"
                )
            fault_plan = FaultPlan.from_spec(args.faults)
            policies = (
                ResilienceConfig.from_spec(args.resilience)
                if args.resilience is not None
                else ResilienceConfig()
            )
            kind = resilience.KIND

            def produce():
                return resilience.serve_resilience_report(
                    spec, fault_plan, policies, slo=slo
                )

        elif args.resilience is not None:
            raise ReproError(
                "--resilience requires --faults seed,rate "
                "(the availability A/B needs injected failures)"
            )
        else:
            metrics_format = _metrics_out_format(args.metrics) if args.metrics else None
            kind = workload.KIND

            def produce():
                nonlocal snapshot
                if not args.metrics:
                    return workload.serve_workload_report(spec, slo=slo)
                report, snapshot = workload.serve_workload_with_metrics(spec, slo=slo)
                return report

    except ReproError as error:
        # A malformed spec is a usage error (exit 2, one line), not a
        # simulator failure.
        print(f"error: {error}", file=sys.stderr)
        return 2
    status = _report_mode(args, kind, produce)
    if snapshot is not None:
        if metrics_format == "prometheus":
            from repro.obs.metrics import render_prometheus

            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(snapshot))
        else:
            from repro.report import write_report

            write_report(snapshot, args.metrics)
        print(f"wrote {args.metrics}")
    return status


def cmd_catalog(args: argparse.Namespace) -> int:
    for qid, query in CATALOG.items():
        structure = " | ".join(s.label() for s in query.structure)
        marker = f" [{query.selectivity}]" if query.selectivity else ""
        print(f"{qid:5s} {query.dataset:7s} {structure}{marker}")
        if args.verbose:
            print(f"      {query.description}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.rdf.stats import profile

    graph = _load_graph(args)
    stats = profile(graph)
    if args.json:
        print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))
    else:
        print(stats.describe())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.sink import read_trace

    records = read_trace(args.trace_file)
    if args.trace_command == "summary":
        from repro.obs.summary import render_summary

        print(render_summary(records))
        return 0
    if args.trace_command == "tree":
        from repro.obs.summary import render_tree

        print(render_tree(records, max_depth=args.depth))
        return 0
    # export
    import json

    from repro.obs.perfetto import to_chrome_trace, validate_chrome_trace

    chrome = to_chrome_trace(records)
    if args.check:
        problems = validate_chrome_trace(chrome)
        if problems:
            for problem in problems:
                print(f"invalid trace-event output: {problem}", file=sys.stderr)
            return 1
    rendered = json.dumps(chrome, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics summary|export``: inspect or re-export a
    repro-metrics/v1 snapshot written by ``repro serve --metrics``."""
    import json

    from repro.obs.metrics import (
        METRICS_SCHEMA,
        MetricsError,
        render_metrics_summary,
        render_prometheus,
        validate_prometheus,
    )

    snapshot = json.loads(open(args.snapshot, encoding="utf-8").read())
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise MetricsError(
            f"{args.snapshot}: not a {METRICS_SCHEMA} snapshot "
            f"(schema={snapshot.get('schema')!r})"
        )
    if args.metrics_command == "summary":
        print(render_metrics_summary(snapshot))
        return 0
    # export
    if args.format == "prometheus":
        rendered = render_prometheus(snapshot)
        if args.check:
            problems = validate_prometheus(rendered)
            if problems:
                for problem in problems:
                    print(f"invalid exposition: {problem}", file=sys.stderr)
                return 1
    else:
        rendered = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
    else:
        print(rendered, end="")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    preset = args.preset or _DEFAULT_PRESETS[args.dataset]
    graph = generate_dataset(args.dataset, preset)
    with open(args.output, "w", encoding="utf-8") as handle:
        count = ntriples.write(sorted(graph, key=lambda t: t.n3()), handle)
    print(f"wrote {count} triples to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAPIDAnalytics reproduction (EDBT 2016) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("query", help="catalog query id (e.g. MG1) or a SPARQL file")
        p.add_argument("--dataset", choices=sorted(_DEFAULT_PRESETS), default=None)
        p.add_argument("--preset", default=None, help="dataset preset name")
        p.add_argument("--data", default=None, help="N-Triples file to query instead")

    def add_trace_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="record a repro-trace/v1 JSONL execution trace here "
            "(inspect with 'repro trace')",
        )

    def add_representation_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--representation",
            default=None,
            metavar="MODE",
            help="NTGA intermediate representation: factorized (default), "
            "flat, or auto (cost-based choice per plan)",
        )

    def add_planner_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--planner",
            default=None,
            metavar="MODE",
            help="plan selection: rule (default; the paper's heuristics), "
            "cost (cheapest priced candidate), or auto (cost only beyond "
            "a margin)",
        )

    run = sub.add_parser("run", help="execute a query on one engine")
    add_query_options(run)
    run.add_argument("--engine", choices=sorted(ENGINE_FACTORIES), default="rapid-analytics")
    run.add_argument("--limit", type=int, default=10, help="rows to print")
    run.add_argument("--format", choices=("text", "csv"), default="text")
    run.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="also print the per-job workflow breakdown and counters",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SEED,RATE",
        help="run under a seeded fault plan "
        "('seed,rate[,straggler_rate[,write_rate[,attempts]]]')",
    )
    run.add_argument(
        "--recover",
        nargs="?",
        type=int,
        const=8,
        default=None,
        metavar="BUDGET",
        help="recover job aborts via checkpointed workflow resubmission "
        "(optional resubmission budget, default 8)",
    )
    run.add_argument(
        "--shards",
        default=None,
        metavar="SPEC",
        help="execute sharded across N workers: N (default hash "
        "partition) or N,strategy (hash, locality, min-edge-cut); "
        "NTGA engines only",
    )
    add_trace_option(run)
    add_representation_option(run)
    add_planner_option(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="run a query on all four engines")
    add_query_options(compare)
    add_trace_option(compare)
    add_representation_option(compare)
    add_planner_option(compare)
    compare.set_defaults(func=cmd_compare)

    explain_cmd = sub.add_parser(
        "explain", help="show decomposition, MR plan, and priced candidates"
    )
    add_query_options(explain_cmd)
    explain_cmd.add_argument(
        "--engine", choices=sorted(ENGINE_FACTORIES), default="rapid-analytics"
    )
    add_planner_option(explain_cmd)
    explain_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-explain/v1 report as JSON",
    )
    explain_cmd.add_argument(
        "--plan-only",
        action="store_true",
        help="skip the graph build and planner pricing; show just the "
        "structural plan",
    )
    explain_cmd.add_argument(
        "--run",
        action="store_true",
        help="also execute the query and append estimated-vs-actual "
        "cardinalities per MR cycle",
    )
    explain_cmd.add_argument(
        "--shards",
        default=None,
        metavar="SPEC",
        help="add the sharded-execution section: N (default hash "
        "partition) or N,strategy; shows per-shard cardinalities, the "
        "edge cut, and estimated exchange bytes",
    )
    explain_cmd.set_defaults(func=cmd_explain)

    bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    bench.add_argument("experiment", help=", ".join(sorted(EXPERIMENTS)))
    bench.add_argument(
        "--output",
        default=None,
        help="write the report mode's JSON report here (needs --faults, "
        "--chaos, --planner-ab, --calibration or --shards)",
    )
    bench.add_argument(
        "--golden",
        default=None,
        help="also diff the report just produced against a committed golden "
        "of the same schema (exit 1 on a difference, exit 2 on a file of "
        "another schema)",
    )
    bench.add_argument(
        "--faults",
        default=None,
        metavar="SEED,RATE",
        help="run fault-free and under a seeded fault plan "
        "('seed,rate[,straggler_rate[,write_rate[,attempts]]]'), no "
        "recovery: the chaos soak's one-plan case; --output/--golden "
        "write/verify the repro-chaos-soak/v2 report",
    )
    bench.add_argument(
        "--planner-ab",
        action="store_true",
        help="rule-vs-cost planner A/B on rapid-analytics (experiment is "
        "'mg' for MG1-MG4 or a comma-separated qid list); --output/"
        "--golden write/verify the repro-planner-ab/v1 report",
    )
    bench.add_argument(
        "--calibration",
        action="store_true",
        help="cost-planner calibration baseline: per-query estimate-vs-"
        "actual q-error stats with drift verdicts (experiment is 'mg' "
        "for MG1-MG4 or a comma-separated qid list); --output/--golden "
        "write/verify the repro-calibration/v1 report",
    )
    bench.add_argument(
        "--shards",
        default=None,
        metavar="SPEC",
        help="partitioner A/B on rapid-analytics: 'N' compares all three "
        "strategies (hash, locality, min-edge-cut) at N shards, "
        "'N,strategy' runs one; every sharded run is checked "
        "bit-identical to the unsharded baseline and cross-shard "
        "exchange bytes are reported per strategy (experiment is 'mg' "
        "for MG1-MG4 or a comma-separated qid list); --output/--golden "
        "write/verify the repro-shard-ab/v1 report",
    )
    bench.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="chaos soak: run the experiment across a seeded fault matrix "
        "with checkpointed recovery ('seeds=N,rate=p[,attempts=a]"
        "[,budget=b]'); resumed runs must be bit-identical to the "
        "fault-free run; --output/--golden write/verify the "
        "repro-chaos-soak/v2 report",
    )
    add_trace_option(bench)
    add_representation_option(bench)
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve", help="simulate the concurrent query service on a seeded workload"
    )
    serve.add_argument(
        "--workload",
        required=True,
        metavar="SPEC",
        help="workload matrix: 'seeds=N,clients=C,mix=NAME[,requests=R]"
        "[,window=W][,rate=r][,engine=e][,batch=on|off][,cache=on|off]"
        "[,deadline=d][,max_pending=m][,representation=r][,planner=p]' "
        "(mixes: bsbm-star, chem-overlap, pubmed-mesh)",
    )
    serve.add_argument(
        "--output",
        default=None,
        help="write the report here (repro-serve-workload/v2, or "
        "repro-serve-resilience/v1 under --faults)",
    )
    serve.add_argument(
        "--golden",
        default=None,
        help="also diff the report just produced against a committed "
        "golden of the same schema (serve-workload v2, or "
        "serve-resilience v1 under --faults)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject seeded faults and run the resilience A/B: "
        "'seed,rate[,straggler_rate[,write_rate[,attempts]]]' "
        "(repro-serve-resilience/v1: identical traffic with resilience "
        "off and on)",
    )
    serve.add_argument(
        "--resilience",
        default=None,
        metavar="SPEC",
        help="retry/breaker/degradation policies for the --faults A/B: "
        "'retries=N,backoff=S,factor=F,jitter=J,seed=K,threshold=T,"
        "window=W,cooldown=C,probes=P,stale=on|off,bypass=on|off,"
        "shed=D' (or 'default'; requires --faults)",
    )
    serve.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="collect a repro-metrics/v1 snapshot over the run and write "
        "it here (.json = snapshot, .prom/.txt = Prometheus exposition)",
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="latency objectives on the simulated clock: "
        "'p50=S[,p95=S][,p99=S][,budget=F]' (default: the mix's "
        "built-in targets)",
    )
    add_trace_option(serve)
    serve.set_defaults(func=cmd_serve)

    metrics = sub.add_parser(
        "metrics", help="inspect or re-export a repro-metrics/v1 snapshot"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    metrics_summary = metrics_sub.add_parser(
        "summary", help="per-series headline numbers, SLO and drift verdicts"
    )
    metrics_summary.add_argument("snapshot", help="repro-metrics/v1 JSON file")
    metrics_summary.set_defaults(func=cmd_metrics)

    metrics_export = metrics_sub.add_parser(
        "export", help="render a snapshot in another format"
    )
    metrics_export.add_argument("snapshot", help="repro-metrics/v1 JSON file")
    metrics_export.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (Prometheus text exposition by default)",
    )
    metrics_export.add_argument(
        "--output", "-o", default=None, help="write here instead of stdout"
    )
    metrics_export.add_argument(
        "--check",
        action="store_true",
        help="validate the exposition's grammar and histogram shape first",
    )
    metrics_export.set_defaults(func=cmd_metrics)

    catalog = sub.add_parser("catalog", help="list the workload queries")
    catalog.add_argument("--verbose", "-v", action="store_true")
    catalog.set_defaults(func=cmd_catalog)

    generate = sub.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(_DEFAULT_PRESETS))
    generate.add_argument("output", help="output N-Triples path")
    generate.add_argument("--preset", default=None)
    generate.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats", help="profile a dataset")
    stats.add_argument("--dataset", choices=sorted(_DEFAULT_PRESETS), default="bsbm")
    stats.add_argument("--preset", default=None)
    stats.add_argument("--data", default=None, help="N-Triples file to profile instead")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics as JSON (repro-graph-stats/v1.2)",
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser("trace", help="inspect a recorded execution trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="per-query/per-engine rollup (cycles, bytes, metrics)"
    )
    trace_summary.add_argument("trace_file", help="repro-trace/v1 JSONL file")
    trace_summary.set_defaults(func=cmd_trace)

    trace_tree = trace_sub.add_parser("tree", help="render the span hierarchy")
    trace_tree.add_argument("trace_file", help="repro-trace/v1 JSONL file")
    trace_tree.add_argument(
        "--depth", type=int, default=None, help="limit the rendered depth"
    )
    trace_tree.set_defaults(func=cmd_trace)

    trace_export = trace_sub.add_parser(
        "export", help="convert to another trace format"
    )
    trace_export.add_argument("trace_file", help="repro-trace/v1 JSONL file")
    trace_export.add_argument(
        "--format",
        choices=("perfetto",),
        default="perfetto",
        help="output format (Chrome trace-event JSON for Perfetto)",
    )
    trace_export.add_argument(
        "--output", "-o", default=None, help="write here instead of stdout"
    )
    trace_export.add_argument(
        "--check",
        action="store_true",
        help="validate the export against the trace-event shape first",
    )
    trace_export.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WorkflowAbortedError, CheckpointError, ServeError, ShardError) as error:
        # Typed recovery/serving/sharding failures get their own exit
        # code so scripts can distinguish "budget exhausted" / "bad
        # ledger, chaos, or workload spec" / "engine cannot shard" from
        # ordinary errors; the messages are already self-describing
        # one-liners.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
