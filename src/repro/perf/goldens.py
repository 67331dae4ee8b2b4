"""Golden simulated-output capture and comparison.

A *golden* records everything the simulator is supposed to hold
invariant under performance work: per-workflow counters, MR cycle
counts, per-job byte/record volumes, simulated cost, and an
order-sensitive digest of the result rows.  The committed golden files
under ``tests/golden/`` were captured from the seed (uncached)
implementation; the golden tests re-capture — cached and in
:func:`repro.perf.reference_mode` — and require a bit-identical match.

Regenerate (only when the *simulated* semantics intentionally change)::

    PYTHONPATH=src python -m repro.perf.goldens

"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

from repro.bench.catalog import get_query
from repro.bench.harness import dataset_config
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.results import EngineConfig, ExecutionReport, rows_digest
from repro.datasets import generate
from repro.rdf.graph import Graph
from repro.report import ReportKind, write_report

#: Version tag for the golden schema (bump when the capture shape changes).
GOLDEN_SCHEMA = "repro-golden/v1"

#: The golden workload: one multi-grouping query per dataset (per the
#: paper's three workloads), on the tiny presets so tests stay fast.
GOLDEN_QUERIES: dict[str, tuple[str, ...]] = {
    "bsbm": ("MG2",),
    "chem": ("MG7",),
    "pubmed": ("MG12",),
}


def report_signature(report: ExecutionReport) -> dict[str, Any]:
    """The invariant slice of one engine run, JSON-serializable.

    Floats are stored as ``repr`` strings so the comparison is
    bit-exact rather than subject to JSON round-tripping.
    """
    stats = report.stats
    signature: dict[str, Any] = {
        "rows": len(report.rows),
        "rows_digest": rows_digest(report.rows),
        "cycles": report.cycles,
        "map_only_cycles": report.map_only_cycles,
        "cost_seconds": repr(report.cost_seconds),
        "load_bytes": report.load_bytes,
        "counters": dict(sorted(stats.counters.as_dict().items())) if stats else {},
        "jobs": [],
    }
    if stats is not None:
        for job in stats.jobs:
            signature["jobs"].append(
                {
                    "name": job.name,
                    "map_only": job.map_only,
                    "map_tasks": job.map_tasks,
                    "reduce_tasks": job.reduce_tasks,
                    "input_bytes": job.input_bytes,
                    "side_input_bytes": job.side_input_bytes,
                    "shuffle_bytes": job.shuffle_bytes,
                    "output_bytes": job.output_bytes,
                    "input_records": job.input_records,
                    "output_records": job.output_records,
                    "cost_seconds": repr(job.cost_seconds),
                }
            )
    return signature


def capture_query(
    qid: str, engine: str, graph: Graph, config: EngineConfig
) -> dict[str, Any]:
    analytical = to_analytical(get_query(qid).sparql)
    report = make_engine(engine).execute(analytical, graph, config)
    return {"qid": qid, "engine": engine, **report_signature(report)}


def capture_dataset(
    dataset: str,
    preset: str,
    queries: tuple[str, ...],
    engines: tuple[str, ...] = PAPER_ENGINES,
) -> dict[str, Any]:
    graph = generate(dataset, preset)
    config = dataset_config(dataset)
    return {
        "schema": GOLDEN_SCHEMA,
        "dataset": dataset,
        "preset": preset,
        "queries": list(queries),
        "engines": list(engines),
        "runs": [
            capture_query(qid, engine, graph, config)
            for qid in queries
            for engine in engines
        ],
    }


#: A golden is self-describing (dataset, preset, queries, engines), so a
#: check exercises exactly the runs it was captured from.
KIND = ReportKind(
    schema=GOLDEN_SCHEMA,
    label="golden",
    head=("schema", "dataset", "preset", "queries", "engines"),
    key=("qid", "engine"),
    tail=(),
    rerun=lambda golden: capture_dataset(
        golden["dataset"],
        golden["preset"],
        tuple(golden["queries"]),
        tuple(golden["engines"]),
    ),
)


def golden_path(root: Path, dataset: str, preset: str) -> Path:
    return root / f"{dataset}-{preset}.json"


def write_goldens(root: Path, preset: str = "tiny") -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for dataset, queries in GOLDEN_QUERIES.items():
        capture = capture_dataset(dataset, preset, queries)
        written.append(write_report(capture, golden_path(root, dataset, preset)))
    return written


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]) if args else Path("tests/golden")
    for path in write_goldens(root):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
