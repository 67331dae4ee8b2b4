"""``repro catalog``, ``generate`` and ``stats``: the workload and its data."""

from __future__ import annotations

import argparse

from repro.cli import DEFAULT_PRESETS, load_graph


def declare_catalog(catalog: argparse.ArgumentParser) -> None:
    catalog.add_argument("--verbose", "-v", action="store_true")
    catalog.set_defaults(func=cmd_catalog)


def declare_generate(generate: argparse.ArgumentParser) -> None:
    generate.add_argument("dataset", choices=sorted(DEFAULT_PRESETS))
    generate.add_argument("output", help="output N-Triples path")
    generate.add_argument("--preset", default=None)
    generate.set_defaults(func=cmd_generate)


def declare_stats(stats: argparse.ArgumentParser) -> None:
    stats.add_argument("--dataset", choices=sorted(DEFAULT_PRESETS), default="bsbm")
    stats.add_argument("--preset", default=None)
    stats.add_argument("--data", default=None, help="N-Triples file to profile instead")
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the statistics as JSON (repro-graph-stats/v1.2)",
    )
    stats.set_defaults(func=cmd_stats)


def cmd_catalog(args: argparse.Namespace) -> int:
    from repro.bench.catalog import CATALOG

    for qid, query in CATALOG.items():
        structure = " | ".join(s.label() for s in query.structure)
        marker = f" [{query.selectivity}]" if query.selectivity else ""
        print(f"{qid:5s} {query.dataset:7s} {structure}{marker}")
        if args.verbose:
            print(f"      {query.description}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.rdf import ntriples

    graph = load_graph(args)
    with open(args.output, "w", encoding="utf-8") as handle:
        count = ntriples.write(sorted(graph, key=lambda t: t.n3()), handle)
    print(f"wrote {count} triples to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.rdf.stats import profile

    stats = profile(load_graph(args))
    if args.json:
        print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))
    else:
        print(stats.describe())
    return 0
