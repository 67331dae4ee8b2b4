"""``repro run``, ``compare`` and ``explain``: one query on the engines."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.bench.catalog import CATALOG, get_query
from repro.cli import (
    DEFAULT_PRESETS,
    add_representation_option,
    add_trace_option,
    load_graph,
    tracing_to,
    usage,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.results import EngineConfig


def _add_query_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("query", help="catalog query id (e.g. MG1) or a SPARQL file")
    p.add_argument("--dataset", choices=sorted(DEFAULT_PRESETS), default=None)
    p.add_argument("--preset", default=None, help="dataset preset name")
    p.add_argument("--data", default=None, help="N-Triples file to query instead")


def _add_planner_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--planner",
        default=None,
        metavar="MODE",
        help="plan selection: rule (default; the paper's heuristics), "
        "cost (cheapest priced candidate), or auto (cost only beyond "
        "a margin)",
    )


def _add_engine_option(p: argparse.ArgumentParser) -> None:
    from repro.core.engines import ENGINE_FACTORIES

    p.add_argument("--engine", choices=sorted(ENGINE_FACTORIES), default="rapid-analytics")


def _row_limit(text: str) -> int:
    """``--limit``'s type: a number of rows, never negative."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {limit}")
    return limit


def declare_run(run: argparse.ArgumentParser) -> None:
    _add_query_options(run)
    _add_engine_option(run)
    run.add_argument("--limit", type=_row_limit, default=10, help="rows to print")
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
    _add_planner_option(run)
    run.set_defaults(func=cmd_run)


def declare_compare(compare: argparse.ArgumentParser) -> None:
    _add_query_options(compare)
    add_trace_option(compare)
    add_representation_option(compare)
    _add_planner_option(compare)
    compare.set_defaults(func=cmd_compare)


def declare_explain(explain: argparse.ArgumentParser) -> None:
    _add_query_options(explain)
    _add_engine_option(explain)
    _add_planner_option(explain)
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-explain/v1 report as JSON",
    )
    explain.add_argument(
        "--plan-only",
        action="store_true",
        help="skip the graph build and planner pricing; show just the "
        "structural plan",
    )
    explain.add_argument(
        "--run",
        action="store_true",
        help="also execute the query and append estimated-vs-actual "
        "cardinalities per MR cycle",
    )
    explain.add_argument(
        "--shards",
        default=None,
        metavar="SPEC",
        help="add the sharded-execution section: N (default hash "
        "partition) or N,strategy; shows per-shard cardinalities, the "
        "edge cut, and estimated exchange bytes",
    )
    explain.set_defaults(func=cmd_explain)


def _resolve_query(args: argparse.Namespace) -> tuple[str, str]:
    """Returns (query id or file name, SPARQL text), and fills in a
    missing ``--dataset``: a catalog query's own, else ``bsbm``."""
    if args.query in CATALOG:
        query = get_query(args.query)
        args.dataset = args.dataset or query.dataset
        return args.query, query.sparql
    args.dataset = args.dataset or "bsbm"
    with open(args.query, encoding="utf-8") as handle:
        return args.query, handle.read()


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

    names = list(dict.fromkeys(variable.name for row in rows for variable in row))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, names)
    writer.writeheader()
    for row in sorted(rows, key=str):
        writer.writerow({variable.name: term.n3() for variable, term in row.items()})
    return buffer.getvalue()


def _engine_config(args: argparse.Namespace) -> EngineConfig | None:
    """The EngineConfig ``run`` and ``explain`` hand ``--engine``: the
    knob flags, ``--shards N[,strategy]`` (a bare ``N`` means the default
    hash partition) and ``run``'s ``--faults``/``--recover`` — None when
    none is given, so the default-config path is untouched.  A bad value,
    or a combination the engine does not support, is a ``ReproError``."""
    from repro.ambient import knob_overrides
    from repro.core.results import EngineConfig, check_supported

    fields: dict = knob_overrides(args)
    if args.shards:
        from repro.shard.partition import parse_shard_spec

        fields["shards"], strategies = parse_shard_spec(args.shards)
        if len(strategies) == 1:
            fields["partitioner"] = strategies[0]
    if getattr(args, "faults", None):
        from repro.mapreduce.faults import FaultPlan

        fields["fault_plan"] = FaultPlan.from_spec(args.faults)
    if getattr(args, "recover", None) is not None:
        from repro.mapreduce.checkpoint import RecoveryPolicy

        fields["recovery"] = RecoveryPolicy(max_resubmissions=args.recover)
    config = EngineConfig(**fields) if fields else None
    check_supported(args.engine, config)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.engines import make_engine, to_analytical

    with usage():
        config = _engine_config(args)
    qid, sparql = _resolve_query(args)
    # The engine is imported before the graph is built: with no bytecode
    # cache its modules compile, and that garbage would otherwise land on
    # top of the resident graph in the process's peak.
    engine = make_engine(args.engine)
    graph = load_graph(args)
    with tracing_to(args.trace):
        with obs.span(qid, "query", {"qid": qid}):
            report = engine.execute(to_analytical(sparql), graph, config)
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
    from repro import ambient, obs
    from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical

    with usage():
        overrides = ambient.knob_overrides(args)
    qid, sparql = _resolve_query(args)
    graph = load_graph(args)
    analytical = to_analytical(sparql)
    print(f"{'engine':18s} {'rows':>6s} {'cycles':>7s} {'map-only':>9s} {'cost':>9s}")
    with tracing_to(args.trace), ambient.installed(**overrides):
        with obs.span(qid, "query", {"qid": qid}):
            for engine in PAPER_ENGINES:
                report = make_engine(engine).execute(analytical, graph)
                print(
                    f"{engine:18s} {len(report.rows):6d} {report.cycles:7d} "
                    f"{report.map_only_cycles:9d} {report.cost_seconds:8.1f}s"
                )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.engines import make_engine, to_analytical
    from repro.core.explain import explain

    with usage():
        config = _engine_config(args)
    _, sparql = _resolve_query(args)
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
        graph = load_graph(args)
    run = None
    if args.run:
        run = make_engine(args.engine).execute(to_analytical(sparql), graph, config)
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
        from repro.core.explain import estimated_vs_actual, render_estimated_vs_actual

        comparison = estimated_vs_actual(run)
        if comparison:
            print()
            print(render_estimated_vs_actual(comparison))
        print(
            f"\nexecuted: {len(run.rows)} rows, {run.cycles} MR cycles, "
            f"simulated cost {run.cost_seconds:.1f}s"
        )
    return 0
