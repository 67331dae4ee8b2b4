"""Render every measured number of EXPERIMENTS.md from the paper harness.

Each measured number or table in EXPERIMENTS.md sits between two HTML
comments that name it; :func:`render` rewrites it from :func:`result`
(each row of ``repro.bench.harness.EXPERIMENTS`` run once per process by
``run_paper_experiment``, answers checked against the reference
evaluator), MG13 under its HDFS capacity, the ablations of
``repro.bench.ablations`` and the committed serve golden.  The benchmarks
assert their shape claims on the same results (``conftest.py``), and
``test_experiments_md.py`` fails when the document differs from the
render.  From the repository root, with ``src/`` importable::

    PYTHONPATH=src python3 benchmarks/render_experiments.py   # rewrite EXPERIMENTS.md

Standard library and ``repro`` only.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import NamedTuple

from repro.bench import ablations as ablation
from repro.bench.catalog import get_query
from repro.bench.harness import EXPERIMENTS, MG13_CAPACITY, ExperimentResult
from repro.bench.harness import mg13_disk_exhaustion, run_paper_experiment
from repro.core.engines import PAPER_ENGINES
from repro.datasets import generate
from repro.errors import ReproError

ROOT = Path(__file__).resolve().parents[1]
DOCUMENT = ROOT / "EXPERIMENTS.md"
NAIVE, MQO, PLUS, RA = PAPER_ENGINES
SHORT = dict(zip(PAPER_ENGINES, ("Naive", "MQO", "R+", "RA")))
RENDERED = re.compile(r"<!-- (?P<name>[\w-]+) -->.*?<!-- /(?P=name) -->", re.S)
TABLE3_BSBM = ("table3-bsbm-500k", "table3-bsbm-2m")

#: ``graph(dataset, preset)``: each synthetic graph generated once.
graph = functools.cache(generate)


@functools.cache
def result(exp_id: str) -> ExperimentResult:
    """A row of ``EXPERIMENTS``, or ``"mg13-disk"`` (MG13 under
    ``MG13_CAPACITY``), run once; answers that differ from the reference
    evaluator's raise."""
    if exp_id == "mg13-disk":
        return mg13_disk_exhaustion(MG13_CAPACITY)
    row = EXPERIMENTS[exp_id]
    found = run_paper_experiment(exp_id, graph=graph(row.dataset, row.preset))
    if found.mismatches:
        raise ReproError(f"{exp_id}: answers differ from the reference: {found.mismatches}")
    return found


@functools.cache
def ablations() -> dict:
    """Each ablation in its paper environment: MG1 on BSBM-500K, G5 and G9
    on Chem2Bio2RDF."""
    bsbm, chem = EXPERIMENTS["figure8a"], EXPERIMENTS["figure8c"]
    mg1 = (graph(bsbm.dataset, bsbm.preset), get_query("MG1").sparql, bsbm.config())
    chem_graph, config = graph(chem.dataset, chem.preset), chem.config()
    return {
        "combiner": ablation.combiner_ablation(*mg1),
        "parallel": ablation.parallel_aggregation_ablation(*mg1),
        "shared-scan": ablation.shared_scan_benefit(*mg1),
        "ec-pruning": ablation.ec_pruning_ablation(chem_graph, get_query("G9").sparql, config),
        "mapjoin-sweep": ablation.mapjoin_threshold_sweep(
            chem_graph, get_query("G5").sparql, (0, 4096, 64 * 1024), config
        ),
    }


class CycleClaim(NamedTuple):
    """MR-cycle counts the paper states for *queries*, per engine, as the
    document prints them ("13 (11 map-only)" where it gives map-only ones)."""

    label: str
    experiments: tuple[str, ...]
    queries: tuple[str, ...]
    paper: dict[str, str]


#: Every cycle count in the paper's text: the one copy the benchmarks
#: assert and the document prints beside what was measured.
CYCLE_CLAIMS = (
    CycleClaim("G1–G4 Hive / RA", TABLE3_BSBM, ("G1", "G2", "G3", "G4"), {NAIVE: "4", RA: "2"}),
    CycleClaim("MG1–MG2 Naive / MQO / R+ / RA", ("figure8a", "figure8b"), ("MG1", "MG2"),
               {NAIVE: "9", MQO: "7", PLUS: "5", RA: "3"}),
    CycleClaim("MG3–MG4 Naive / MQO / R+ / RA", ("figure8a", "figure8b"), ("MG3", "MG4"),
               {NAIVE: "11", MQO: "8", PLUS: "7", RA: "4"}),
    CycleClaim("MG6 Naive", ("figure8c",), ("MG6",), {NAIVE: "13 (11 map-only)"}),
    CycleClaim("MG6 MQO", ("figure8c",), ("MG6",), {MQO: "8 (6 map-only)"}),
    CycleClaim("MG6 R+ / RA", ("figure8c",), ("MG6",), {PLUS: "7", RA: "4"}),
)


def measured_cycles(claim: CycleClaim) -> dict[str, str]:
    """*claim*'s counts as measured, in its format (the distinct values
    over its experiments and queries, comma-separated)."""

    def text(m, stated: str) -> str:
        return f"{m.cycles} ({m.map_only_cycles} map-only)" if "map" in stated else str(m.cycles)

    return {
        engine: ", ".join(sorted({
            text(result(exp_id).for_query(qid)[engine], stated)
            for exp_id in claim.experiments
            for qid in claim.queries
        }))
        for engine, stated in claim.paper.items()
    }


def cell(m) -> str:
    """``cost (cycles, Nmo)`` (no ``Nmo`` without map-only cycles), or the
    error an aborted run raised."""
    if m.failed:
        return f"FAIL({m.failed})"
    map_only = f", {m.map_only_cycles}mo" if m.map_only_cycles else ""
    return f"{m.cost_seconds:.1f} ({m.cycles}{map_only})"


def gains(exp_ids, baseline=NAIVE, qids=None) -> list[float]:
    """RAPIDAnalytics' saving over *baseline*, in percent, per query."""
    return [
        (1 - 1 / found.speedup(qid, baseline)) * 100
        for found in map(result, exp_ids)
        for qid in qids or found.query_ids()
    ]


def spread(values: list[float]) -> str:
    low, high = (f"{value:.0f}" for value in (min(values), max(values)))
    return f"{low}%" if low == high else f"{low}–{high}%"


def cut(kept: float, baseline: float) -> str:
    return f"{(1 - kept / baseline) * 100:.0f}%"


def mb(n: float) -> str:
    return f"{n / 1e6:.2f}MB"


def table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [headers, ["---"] * len(headers), *rows]
    return "".join(f"\n| {' | '.join(line)} |" for line in lines) + "\n"


def engine_table(exp_id: str, columns: dict, label=str, scale: str = "") -> str:
    """One row per query of *exp_id*: its *label*, a cell per engine, then
    each of *columns* (header -> function of the qid)."""
    found = result(exp_id)
    return table(
        ["Query", *(SHORT[engine] + scale for engine in found.engines), *columns],
        [
            [label(qid)]
            + [cell(found.for_query(qid)[engine]) for engine in found.engines]
            + [column(qid) for column in columns.values()]
            for qid in found.query_ids()
        ],
    )


def gain_column(exp_id: str, baseline: str):
    return lambda qid: f"{gains((exp_id,), baseline, (qid,))[0]:.0f}%"


def gain_table(exp_id: str, *baselines: str) -> str:
    return engine_table(exp_id, {f"gain vs {SHORT[b]}": gain_column(exp_id, b) for b in baselines})


def _table3_left() -> str:
    def label(qid: str) -> str:
        query = get_query(qid)
        return f"{qid} ({query.selectivity}, {(*query.structure[0].group_by, 'ALL')[0]})"

    small, large = TABLE3_BSBM
    columns = {
        "gain 500K": gain_column(small, NAIVE),
        "Naive 2M": lambda qid: cell(result(large).for_query(qid)[NAIVE]),
        "RA 2M": lambda qid: cell(result(large).for_query(qid)[RA]),
        "gain 2M": gain_column(large, NAIVE),
    }
    return engine_table(small, columns, label, " 500K")


def _mg13(engine: str) -> int:
    """MG13's HDFS demand on *engine*: its load plus every materialized file."""
    report = result("table4").for_query("MG13")[engine].report
    return report.load_bytes + report.stats.total_materialized_bytes


def _serve(key: str) -> float:
    golden = ROOT / "benchmarks" / "golden" / "serve-chem-overlap.json"
    return json.loads(golden.read_text(encoding="utf-8"))["summary"][key]


def _sweep(text) -> str:
    return " → ".join(text(*point) for point in ablations()["mapjoin-sweep"])


#: Rendered passage name -> its text.
PASSAGES = {
    "table3-bsbm": _table3_left,
    "table3-bsbm-gains": lambda: spread(gains(TABLE3_BSBM)),
    "table3-chem": lambda: gain_table("table3-chem", NAIVE),
    "figure8a": lambda: gain_table("figure8a", NAIVE, PLUS),
    "figure8a-gains": lambda: spread(gains(("figure8a",), PLUS)),
    "figure8b": lambda: engine_table("figure8b", {
        "Naive/RA 500K → 2M": lambda qid: " → ".join(
            f"{result(exp_id).speedup(qid, NAIVE):.2f}x" for exp_id in ("figure8a", "figure8b")
        )
    }),
    "figure8c": lambda: gain_table("figure8c", MQO, NAIVE),
    "figure8c-mg6": lambda: "/".join(
        f"{m.cycles}({m.map_only_cycles}mo)" if engine in (NAIVE, MQO) else str(m.cycles)
        for engine, m in result("figure8c").for_query("MG6").items()
    ),
    "figure8c-gains": lambda: spread(gains(("figure8c",), MQO, ("MG6", "MG7", "MG8"))),
    "table4": lambda: gain_table("table4", PLUS),
    "table4-gains": lambda: spread(gains(("table4",), PLUS)),
    "table4-worst": lambda: max(
        result("table4").query_ids(),
        key=lambda qid: result("table4").for_query(qid)[NAIVE].cost_seconds,
    ),
    "mg13-demand": lambda: " > ".join(
        f"{name} {mb(_mg13(engine))}"
        for name, engine in zip(("naive", "MQO", "RAPID+", "RA"), PAPER_ENGINES)
    ),
    "mg13-ratio": lambda: f"{result('table4').speedup('MG13', NAIVE):.2f}",
    "mg13-capacity": lambda: f"{MG13_CAPACITY / 1e6:g}MB",
    "mg13-window": lambda: f"{_mg13(MQO) / 1e6:.2f}–{mb(_mg13(NAIVE))}",
    "mg13-failure": lambda: f"`{result('mg13-disk').for_query('MG13')[NAIVE].failed}`",
    "mg13-mqo": lambda: mb(_mg13(MQO)),
    "cycle-counts": lambda: table(["Claim", "Paper", "Measured"], [
        [claim.label, " / ".join(claim.paper.values()), " / ".join(measured_cycles(claim).values())]
        for claim in CYCLE_CLAIMS
    ]),
    "combiner-cut": lambda: cut(*(p.shuffle_bytes for p in ablations()["combiner"])),
    "parallel-cycles": lambda: str(ablations()["parallel"][0].cycles),
    "sequential-cycles": lambda: str(ablations()["parallel"][1].cycles),
    "parallel-cut": lambda: cut(*(p.cost_seconds for p in ablations()["parallel"])),
    "pruning-cut": lambda: cut(*(p.input_bytes for p in ablations()["ec-pruning"])),
    "pruning-cost": lambda: f"{ablations()['ec-pruning'][0].cost_seconds:.2f}",
    "full-scan-cost": lambda: f"{ablations()['ec-pruning'][1].cost_seconds:.2f}",
    "sweep-shuffles": lambda: _sweep(lambda _, point: f"{point.shuffle_bytes:,}"),
    "sweep-thresholds": lambda: _sweep(lambda threshold, _: str(threshold // 1024)),
    "sweep-cycles": lambda: _sweep(lambda _, point: str(point.cycles)),
    "scan-ra": lambda: f"{ablations()['shared-scan'][RA].input_bytes:,}",
    "scan-plus": lambda: f"{ablations()['shared-scan'][PLUS].input_bytes:,}",
    "serve-cost": lambda: f"{_serve('total_served_cost_seconds'):.1f}",
    "serve-baseline": lambda: f"{_serve('total_baseline_cost_seconds'):.1f}s",
    "serve-saved": lambda: f"{_serve('total_saved_ratio') * 100:.1f}%",
    "bsbm-gains": lambda: spread(gains((*TABLE3_BSBM, "figure8a", "figure8b"))),
    "figure8c-naive-gains": lambda: spread(gains(("figure8c",))),
}


def render(document: str) -> str:
    """*document* with every rendered passage rewritten; a passage the
    document lacks, or one this module does not know, raises."""
    found = {match["name"] for match in RENDERED.finditer(document)}
    if found != set(PASSAGES):
        raise ReproError(f"rendered passages: document {sorted(found)} != {sorted(PASSAGES)}")

    def passage(match: re.Match) -> str:
        name = match["name"]
        return f"<!-- {name} -->{PASSAGES[name]()}<!-- /{name} -->"

    return RENDERED.sub(passage, document)


if __name__ == "__main__":
    DOCUMENT.write_text(render(DOCUMENT.read_text(encoding="utf-8")), encoding="utf-8")
