"""``repro bench``: a paper table/figure, or one of five report modes."""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    add_representation_option,
    add_trace_option,
    report_mode,
    tracing_to,
    usage,
)
from repro.errors import ReproError


def declare_bench(bench: argparse.ArgumentParser) -> None:
    from repro.bench.harness import EXPERIMENTS

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


def _catalog_qids(text: str) -> list[str]:
    """The query list of a catalog A/B mode: ``mg`` for the default
    slice, else a comma-separated list of distinct catalog qids."""
    from repro.bench.arms import DEFAULT_QUERIES
    from repro.bench.catalog import CATALOG

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


# One function per report mode (its --help says what it does): parse the
# mode's spec, under ``usage()``, and name its report kind and producer.


def _soak_mode(args: argparse.Namespace):
    """The chaos soak: ``--faults`` is its one-plan, no-recovery case."""
    from repro.bench import chaos
    from repro.bench.harness import paper_experiment
    from repro.mapreduce.faults import FaultPlan

    paper_experiment(args.experiment, "fault experiment" if args.faults else "chaos experiment")
    if args.faults:
        plans, recovery = [FaultPlan.from_spec(args.faults)], None
    else:
        spec = chaos.ChaosSpec.from_spec(args.chaos)
        plans, recovery = spec.plans(), spec.policy()
    return chaos.KIND, lambda: chaos.chaos_soak_report(args.experiment, plans, recovery)


def _planner_ab_mode(args: argparse.Namespace):
    """Rule vs cost planner on rapid-analytics."""
    from repro.plan import ab

    qids = _catalog_qids(args.experiment)
    return ab.KIND, lambda: ab.planner_ab_report(qids)


def _calibration_mode(args: argparse.Namespace):
    """Per-query q-error stats under the cost planner."""
    from repro.bench import calibration

    qids = _catalog_qids(args.experiment)
    return calibration.KIND, lambda: calibration.calibration_report(qids)


def _shards_mode(args: argparse.Namespace):
    """The unsharded baseline vs each partitioner at N shards."""
    from repro.shard import ab
    from repro.shard.partition import parse_shard_spec

    shards, strategies = parse_shard_spec(args.shards)
    qids = _catalog_qids(args.experiment)
    return ab.KIND, lambda: ab.shard_ab_report(qids, shards, strategies)


_REPORT_MODES = {
    "faults": _soak_mode,
    "chaos": _soak_mode,
    "planner_ab": _planner_ab_mode,
    "calibration": _calibration_mode,
    "shards": _shards_mode,
}


def cmd_bench(args: argparse.Namespace) -> int:
    from repro import ambient
    from repro.bench.harness import paper_experiment, run_paper_experiment
    from repro.bench.reporting import render_cost_table, render_gains_table

    modes = [flag for flag in _REPORT_MODES if getattr(args, flag)]
    flags = [mode.replace("_", "-") for mode in modes]
    with usage():
        if len(modes) > 1:
            raise ReproError("--" + " and --".join(flags) + " are mutually exclusive")
        if args.representation is not None and modes:
            # --faults/--chaos pin their goldens under the default
            # representation.  An override would silently change what
            # those modes certify.
            raise ReproError(f"--representation cannot be combined with --{flags[0]}")
        overrides = ambient.knob_overrides(args)
        if modes:
            kind, produce = _REPORT_MODES[modes[0]](args)
        elif args.output or args.golden:
            raise ReproError(
                "--output and --golden require a report mode (--faults, "
                "--chaos, --planner-ab, --calibration or --shards)"
            )
        else:
            paper_experiment(args.experiment)
    if modes:
        return report_mode(args, kind, produce)
    with tracing_to(args.trace), ambient.installed(**overrides):
        result = run_paper_experiment(args.experiment)
    if result.mismatches:
        print(f"WARNING: result mismatches: {result.mismatches}", file=sys.stderr)
    print(render_cost_table(result))
    if len(result.engines) > 1:
        print()
        print(render_gains_table(result, baseline=result.engines[0]))
    return 0
