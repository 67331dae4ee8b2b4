"""Benchmark harness: regenerates every table and figure of Section 5.

Each row of :data:`EXPERIMENTS` declares one paper artifact — its
slice of the workload, its synthetic dataset, its engine columns and
its environment; :func:`run_paper_experiment` runs a row and returns an
:class:`ExperimentResult` whose rows mirror the artifact (same queries,
same engine columns).  The fault-injection report
(:mod:`repro.bench.arms`, baseline vs variant arms of one experiment)
and the golden capturer's per-dataset environments read the same table.

Per-dataset execution configs encode the paper's environment:

* BSBM and PubMed VP tables are large relative to memory, so Hive gets
  no map-joins there (threshold below table sizes) — as in the paper,
  where BSBM-500K tables are GBs;
* Chem2Bio2RDF's chemogenomics tables are small, so Hive's map-join
  optimization fires for G5-G8/MG6-MG8 (the paper's "small VP tables");
* PubMed runs on the larger simulated cluster (the paper's 60 nodes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.bench.catalog import CatalogQuery, get_query
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.results import EngineConfig, ExecutionReport
from repro.datasets import generate
from repro.errors import ReproError
from repro.mapreduce.cost import ClusterConfig
from repro.rdf.graph import Graph


@dataclass
class QueryMeasurement:
    qid: str
    engine: str
    rows: int
    cycles: int
    map_only_cycles: int
    cost_seconds: float
    shuffle_bytes: int
    materialized_bytes: int
    failed: str = ""  # non-empty = error name (e.g. HDFS out of space)
    #: Simulated workflow counters (sorted by name), for invariant checks.
    counters: dict[str, int] = field(default_factory=dict)
    #: Order-sensitive fingerprint of the result rows.
    rows_digest: str = ""
    #: Checkpoint/resume salvage accounting
    #: (:meth:`repro.mapreduce.RecoveryStats.as_dict`); empty unless the
    #: engine ran under a :class:`repro.mapreduce.RecoveryPolicy`.
    recovery: dict[str, object] = field(default_factory=dict)
    #: The run's full report (None when it aborted), for the A/B row builders.
    report: ExecutionReport | None = field(default=None, repr=False, compare=False)

    @property
    def full_cycles(self) -> int:
        return self.cycles - self.map_only_cycles


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    engines: tuple[str, ...]
    measurements: list[QueryMeasurement] = field(default_factory=list)
    mismatches: list[tuple[str, str]] = field(default_factory=list)

    def for_query(self, qid: str) -> dict[str, QueryMeasurement]:
        return {m.engine: m for m in self.measurements if m.qid == qid}

    def query_ids(self) -> list[str]:
        seen: list[str] = []
        for m in self.measurements:
            if m.qid not in seen:
                seen.append(m.qid)
        return seen

    def speedup(self, qid: str, baseline: str, engine: str = "rapid-analytics") -> float:
        """Paper-style speedup factor baseline/engine on simulated cost."""
        per_engine = self.for_query(qid)
        base, target = per_engine.get(baseline), per_engine.get(engine)
        if base is None or target is None or target.cost_seconds == 0:
            raise ReproError(f"no measurements to compare for {qid}")
        return base.cost_seconds / target.cost_seconds

    def gain_percent(self, qid: str, baseline: str, engine: str = "rapid-analytics") -> float:
        return (1 - 1 / self.speedup(qid, baseline, engine)) * 100


def _canonical(report: ExecutionReport) -> Counter:
    return Counter(
        frozenset((v.name, str(t)) for v, t in row.items()) for row in report.rows
    )


def run_experiment(
    exp_id: str,
    title: str,
    queries: list[CatalogQuery],
    graph: Graph,
    engines: tuple[str, ...],
    config: EngineConfig,
    verify: bool = True,
) -> ExperimentResult:
    """Run each query on each engine, measuring the simulated workflow:
    :func:`repro.bench.arms.run_arms` with the one arm *exp_id*.

    With ``verify`` set, every engine's row multiset is checked against
    the reference evaluator; mismatches are recorded (they fail tests).
    An engine that aborts records a failed measurement.
    """
    # Imported here: the A/B loop stays off ``import repro.cli``'s path.
    from repro.bench.arms import run_arms

    graphs = {query.dataset: graph for query in queries}
    outcomes = run_arms(queries, engines, graphs, {exp_id: config})
    result = ExperimentResult(exp_id, title, engines, list(outcomes.values()))
    if not verify:
        return result
    for query in queries:
        reference = make_engine("reference").execute(to_analytical(query.sparql), graph)
        expected = _canonical(reference)
        for engine in engines:
            report = outcomes[exp_id, query.qid, engine].report
            if report is not None and _canonical(report) != expected:
                result.mismatches.append((query.qid, engine))
    return result


# ---------------------------------------------------------------------------
# Per-dataset environments
# ---------------------------------------------------------------------------


def bsbm_config() -> EngineConfig:
    """BSBM environment: 10-node cluster, VP tables too big to map-join."""
    return EngineConfig(
        cluster=ClusterConfig(nodes=10, block_size=64 * 1024),
        mapjoin_threshold=512,
    )


def chem_config() -> EngineConfig:
    """Chem2Bio2RDF: small chemogenomics VP tables → Hive map-joins."""
    return EngineConfig(
        cluster=ClusterConfig(nodes=10, block_size=64 * 1024),
        mapjoin_threshold=64 * 1024,
    )


def pubmed_config(hdfs_capacity: int | None = None) -> EngineConfig:
    """PubMed: the paper's 60-node cluster; optional HDFS cap (MG13)."""
    return EngineConfig(
        cluster=ClusterConfig(nodes=60, block_size=64 * 1024, hdfs_capacity=hdfs_capacity),
        mapjoin_threshold=512,
        hdfs_capacity=hdfs_capacity,
    )


# ---------------------------------------------------------------------------
# Paper artifacts
# ---------------------------------------------------------------------------


class Experiment(NamedTuple):
    """One artifact of Section 5: what runs, on what, under which
    environment."""

    title: str
    dataset: str
    preset: str
    queries: tuple[str, ...]
    engines: tuple[str, ...]
    config: Callable[[], EngineConfig]


_SINGLE = ("hive-naive", "rapid-analytics")
_G_BSBM = ("G1", "G2", "G3", "G4")
_MG_BSBM = ("MG1", "MG2", "MG3", "MG4")

#: The one declaration of every paper artifact, by experiment id.
#: ``repro bench <id>``, its ``--faults`` / ``--chaos`` modes and the
#: golden capturer's per-dataset environment are all lookups here.
EXPERIMENTS: dict[str, Experiment] = {
    "table3-bsbm-tiny": Experiment(
        "Table 3: single-grouping queries on BSBM-tiny",
        "bsbm", "tiny", _G_BSBM, _SINGLE, bsbm_config,
    ),
    "table3-bsbm-500k": Experiment(
        "Table 3: single-grouping queries on BSBM-500k",
        "bsbm", "500k", _G_BSBM, _SINGLE, bsbm_config,
    ),
    "table3-bsbm-2m": Experiment(
        "Table 3: single-grouping queries on BSBM-2m",
        "bsbm", "2m", _G_BSBM, _SINGLE, bsbm_config,
    ),
    "table3-chem": Experiment(
        "Table 3: single-grouping queries on Chem2Bio2RDF",
        "chem", "paper", ("G5", "G6", "G7", "G8", "G9"), _SINGLE, chem_config,
    ),
    "figure8a": Experiment(
        "Figure 8(a): multi-grouping queries on BSBM-500K",
        "bsbm", "500k", _MG_BSBM, PAPER_ENGINES, bsbm_config,
    ),
    "figure8b": Experiment(
        "Figure 8(b): multi-grouping queries on BSBM-2M",
        "bsbm", "2m", _MG_BSBM, PAPER_ENGINES, bsbm_config,
    ),
    "figure8c": Experiment(
        "Figure 8(c): multi-grouping queries on Chem2Bio2RDF",
        "chem", "paper", ("MG6", "MG7", "MG8", "MG9", "MG10"),
        PAPER_ENGINES, chem_config,
    ),
    "table4": Experiment(
        "Table 4: multi-grouping queries on PubMed",
        "pubmed", "paper",
        ("MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"),
        PAPER_ENGINES, pubmed_config,
    ),
}


def paper_experiment(exp_id: str, what: str = "experiment") -> Experiment:
    """The table row for *exp_id*, or a one-line :class:`ReproError`
    naming *what* the caller was looking for (``"chaos experiment"``)."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(f"unknown {what} {exp_id!r}; known: {known}") from None


def dataset_config(dataset: str) -> EngineConfig:
    """The environment the paper's experiments on *dataset* run under."""
    return next(e.config for e in EXPERIMENTS.values() if e.dataset == dataset)()


def run_paper_experiment(
    exp_id: str, verify: bool = True, graph: Graph | None = None
) -> ExperimentResult:
    """Run one row of :data:`EXPERIMENTS` — on *graph* instead of the
    row's generated dataset, when given."""
    experiment = paper_experiment(exp_id)
    return run_experiment(
        exp_id,
        experiment.title,
        [get_query(qid) for qid in experiment.queries],
        graph if graph is not None else generate(experiment.dataset, experiment.preset),
        experiment.engines,
        experiment.config(),
        verify,
    )


def table3_bsbm(
    scale: str = "500k", verify: bool = True, graph: Graph | None = None
) -> ExperimentResult:
    """Table 3 (left): G1-G4 on BSBM, Hive naive vs RAPIDAnalytics."""
    return run_paper_experiment(f"table3-bsbm-{scale}", verify, graph)


def mg13_disk_exhaustion(capacity: int) -> ExperimentResult:
    """The paper's MG13 stress case: naive Hive exhausts HDFS space while
    materializing the expanded MeSH-heading join twice; RAPIDAnalytics
    completes within the same capacity thanks to nested triplegroups."""
    return run_experiment(
        "mg13-disk",
        "MG13 under an HDFS capacity limit",
        [get_query("MG13")],
        generate("pubmed", "paper"),
        ("hive-naive", "rapid-analytics"),
        pubmed_config(hdfs_capacity=capacity),
        verify=False,
    )
