"""``repro trace`` and ``repro metrics``: read back what ``--trace`` and
``serve --metrics`` recorded."""

from __future__ import annotations

import argparse
import sys

from repro.cli import emit, render_snapshot


def declare_trace(trace: argparse.ArgumentParser) -> None:
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summary, tree, export = (
        trace_sub.add_parser(name, help=help_text)
        for name, help_text in (
            ("summary", "per-query/per-engine rollup (cycles, bytes, metrics)"),
            ("tree", "render the span hierarchy"),
            ("export", "convert to another trace format"),
        )
    )
    for reads in (summary, tree, export):
        reads.add_argument("trace_file", help="repro-trace/v1 JSONL file")
    tree.add_argument("--depth", type=int, default=None, help="limit the rendered depth")
    export.add_argument(
        "--format",
        choices=("perfetto",),
        default="perfetto",
        help="output format (Chrome trace-event JSON for Perfetto)",
    )
    export.add_argument("--output", "-o", default=None, help="write here instead of stdout")
    export.add_argument(
        "--check",
        action="store_true",
        help="validate the export against the trace-event shape first",
    )
    trace.set_defaults(func=cmd_trace)


def declare_metrics(metrics: argparse.ArgumentParser) -> None:
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    summary = metrics_sub.add_parser(
        "summary", help="per-series headline numbers, SLO and drift verdicts"
    )
    summary.add_argument("snapshot", help="repro-metrics/v1 JSON file")

    export = metrics_sub.add_parser("export", help="render a snapshot in another format")
    export.add_argument("snapshot", help="repro-metrics/v1 JSON file")
    export.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (Prometheus text exposition by default)",
    )
    export.add_argument("--output", "-o", default=None, help="write here instead of stdout")
    export.add_argument(
        "--check",
        action="store_true",
        help="validate the exposition's grammar and histogram shape first",
    )
    metrics.set_defaults(func=cmd_metrics)


def _invalid(what: str, problems: list[str]) -> bool:
    """Report each of an export's *problems* on stderr; True if any."""
    for problem in problems:
        print(f"{what}: {problem}", file=sys.stderr)
    return bool(problems)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.sink import read_trace

    records = read_trace(args.trace_file)
    if args.trace_command != "export":
        from repro.obs.summary import render_summary, render_tree

        tree = args.trace_command == "tree"
        print(render_tree(records, max_depth=args.depth) if tree else render_summary(records))
        return 0
    import json

    from repro.obs.perfetto import to_chrome_trace, validate_chrome_trace

    chrome = to_chrome_trace(records)
    if args.check and _invalid("invalid trace-event output", validate_chrome_trace(chrome)):
        return 1
    emit(json.dumps(chrome, sort_keys=True) + "\n", args.output)
    return 0


def _load_snapshot(path: str) -> dict:
    """A ``repro-metrics/v1`` snapshot, or a one-line MetricsError."""
    import json

    from repro.obs.metrics import METRICS_SCHEMA, MetricsError

    with open(path, encoding="utf-8") as handle:
        try:
            snapshot = json.load(handle)
        except json.JSONDecodeError as error:
            raise MetricsError(f"{path}: not a readable JSON snapshot ({error})") from None
    schema = snapshot.get("schema") if isinstance(snapshot, dict) else None
    if schema != METRICS_SCHEMA:
        raise MetricsError(f"{path}: not a {METRICS_SCHEMA} snapshot (schema={schema!r})")
    return snapshot


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics summary|export``: inspect or re-export a
    repro-metrics/v1 snapshot written by ``repro serve --metrics``."""
    from repro.obs.metrics import render_metrics_summary, validate_prometheus

    snapshot = _load_snapshot(args.snapshot)
    if args.metrics_command == "summary":
        print(render_metrics_summary(snapshot))
        return 0
    # export
    rendered = render_snapshot(snapshot, args.format)
    if (
        args.format == "prometheus"
        and args.check
        and _invalid("invalid exposition", validate_prometheus(rendered))
    ):
        return 1
    emit(rendered, args.output)
    return 0
