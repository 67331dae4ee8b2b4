"""``repro serve``: the concurrent query service on a seeded workload."""

from __future__ import annotations

import argparse

from repro.cli import add_trace_option, emit, render_snapshot, report_mode, usage
from repro.errors import ReproError, ServeError


def declare_serve(serve: argparse.ArgumentParser) -> None:
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


#: ``--metrics``'s output format, by the path's extension.
_METRICS_FORMATS = {".json": "json", ".prom": "prometheus", ".txt": "prometheus"}


def cmd_serve(args: argparse.Namespace) -> int:
    """The repro-serve-workload/v2 report (with a ``--metrics``
    snapshot), or under ``--faults`` the repro-serve-resilience/v1 A/B."""
    from pathlib import Path

    from repro.mapreduce.faults import FaultPlan
    from repro.serve import resilience, workload
    from repro.serve.slo import SLOSpec

    with usage():
        spec = workload.WorkloadSpec.from_spec(args.workload)
        slo = SLOSpec.from_spec(args.slo) if args.slo else None
        if args.faults:
            if args.metrics:
                raise ReproError(
                    "--metrics cannot be combined with --faults "
                    "(the A/B runs two services per seed)"
                )
            fault_plan = FaultPlan.from_spec(args.faults)
            policies = (
                resilience.ResilienceConfig.from_spec(args.resilience)
                if args.resilience is not None
                else resilience.ResilienceConfig()
            )
        elif args.resilience is not None:
            raise ReproError(
                "--resilience requires --faults seed,rate "
                "(the availability A/B needs injected failures)"
            )
        metrics_format = args.metrics and _METRICS_FORMATS.get(Path(args.metrics).suffix.lower())
        if args.metrics and metrics_format is None:
            raise ServeError(
                f"invalid --metrics path {args.metrics!r}: expected a .json "
                "(repro-metrics/v1 snapshot), .prom, or .txt (Prometheus "
                "exposition) extension"
            )
    snapshot = None

    def produce():
        nonlocal snapshot
        if args.faults:
            return resilience.serve_resilience_report(spec, fault_plan, policies, slo=slo)
        if not args.metrics:
            return workload.serve_workload_report(spec, slo=slo)
        report, snapshot = workload.serve_workload_with_metrics(spec, slo=slo)
        return report

    status = report_mode(args, resilience.KIND if args.faults else workload.KIND, produce)
    if snapshot is not None:
        emit(render_snapshot(snapshot, metrics_format), args.metrics)
    return status
