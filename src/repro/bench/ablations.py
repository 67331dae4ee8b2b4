"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one optimization and measures the system with it
turned off:

* **combiner ablation** — TG_AgJ's mapper-side hash partial aggregation
  (Algorithm 3's ``multiAggMap``, the job's fold): without it every
  expanded solution is shuffled;
* **parallel aggregation ablation** — Figure 6(b)'s fused Agg-Join vs
  Figure 6(a)'s one Agg-Join cycle per subquery;
* **equivalence-class pruning ablation** — storing triplegroups per
  equivalence class lets a star pattern scan only matching files;
* **map-join threshold sweep** — Hive's small-table optimization;
* **shared-scan benefit** — composite (RAPIDAnalytics) vs sequential
  (RAPID+) input volumes on the same query.

Every point is one engine execution under the caller's config: an NTGA
counterfactual is a planner handed to :class:`NTGAEngine`, so it runs
through the same driver, representation, faults and recovery as any
engine run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from functools import partial

from repro.core.engines import make_engine, to_analytical
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig, ExecutionReport
from repro.mapreduce.job import MapReduceJob
from repro.ntga.engine import NTGAEngine, Planner
from repro.ntga.physical import TripleGroupStore
from repro.ntga.planner import NTGAPlan, plan_rapid_analytics
from repro.rdf.graph import Graph


@dataclass(frozen=True)
class AblationPoint:
    label: str
    cycles: int
    shuffle_bytes: int
    input_bytes: int
    cost_seconds: float


def _point(label: str, report: ExecutionReport) -> AblationPoint:
    return AblationPoint(
        label=label,
        cycles=report.cycles,
        shuffle_bytes=report.stats.total_shuffle_bytes,
        input_bytes=sum(job.input_bytes for job in report.stats.jobs),
        cost_seconds=report.cost_seconds,
    )


def _partials_of_one(job: MapReduceJob) -> MapReduceJob:
    """*job* without its fold: each item is shuffled as its own partial."""
    mapper, (zero, step) = job.mapper, job.fold

    def unfolded(record):
        for key, item in mapper(record):
            partial = zero(item)
            step(partial, item)
            yield key, partial

    return dataclass_replace(job, mapper=unfolded, fold=None)


def _without_folds(query: AnalyticalQuery, store: TripleGroupStore) -> NTGAPlan:
    plan = plan_rapid_analytics(query, store)
    plan.jobs = [_partials_of_one(job) if job.fold else job for job in plan.jobs]
    return plan


class _FullScanStore(TripleGroupStore):
    """The same stored files, but every star scans all of them."""

    def paths_for(self, p_prim) -> tuple[str, ...]:
        return tuple(sorted(self.paths_by_class.values()))


def _full_scan(query: AnalyticalQuery, store: TripleGroupStore) -> NTGAPlan:
    return plan_rapid_analytics(query, _FullScanStore(**vars(store)))


def _against(
    graph: Graph,
    sparql: str,
    config: EngineConfig | None,
    labels: tuple[str, str],
    counterfactual: Planner,
) -> tuple[AblationPoint, AblationPoint]:
    """RAPIDAnalytics' rule plan, then *counterfactual*'s, each one
    engine execution of *sparql* under *config*."""
    query = to_analytical(sparql)
    on, off = (
        _point(label, NTGAEngine(label, planner).execute(query, graph, config))
        for label, planner in zip(labels, (plan_rapid_analytics, counterfactual))
    )
    return on, off


def combiner_ablation(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> tuple[AblationPoint, AblationPoint]:
    """RAPIDAnalytics with vs. without mapper-side partial aggregation.

    Returns (with_combiner, without_combiner); the shuffle volume gap is
    the saving Algorithm 3's per-mapper hash aggregation buys.
    """
    return _against(
        graph, sparql, config, ("with combiner", "without combiner"), _without_folds
    )


def parallel_aggregation_ablation(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> tuple[AblationPoint, AblationPoint]:
    """Figure 6(b) vs Figure 6(a): fused parallel Agg-Join vs one
    Agg-Join cycle per subquery over the same composite detail.

    Returns (parallel, sequential); the cycle and cost gap is the
    contribution of the paper's generalized parallel operator, isolated
    from the composite-pattern sharing (both variants share the
    composite evaluation).
    """
    return _against(
        graph,
        sparql,
        config,
        ("fused parallel Agg-Join", "sequential Agg-Joins"),
        partial(plan_rapid_analytics, fuse_aggregations=False),
    )


def ec_pruning_ablation(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> tuple[AblationPoint, AblationPoint]:
    """Equivalence-class input pruning vs. scanning every stored file.

    Returns (pruned, unpruned); the input-bytes gap is the benefit of the
    per-equivalence-class triplegroup layout.
    """
    return _against(graph, sparql, config, ("EC-pruned scan", "full scan"), _full_scan)


def mapjoin_threshold_sweep(
    graph: Graph,
    sparql: str,
    thresholds: tuple[int, ...],
    base_config: EngineConfig | None = None,
) -> list[tuple[int, AblationPoint]]:
    """Hive naive under varying map-join thresholds."""
    base_config = base_config or EngineConfig()
    query = to_analytical(sparql)
    points: list[tuple[int, AblationPoint]] = []
    for threshold in thresholds:
        config = dataclass_replace(base_config, mapjoin_threshold=threshold)
        report = make_engine("hive-naive").execute(query, graph, config)
        points.append((threshold, _point(f"threshold={threshold}", report)))
    return points


def shared_scan_benefit(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> dict[str, AblationPoint]:
    """Composite (shared) vs sequential pattern evaluation input volume."""
    query = to_analytical(sparql)
    return {
        engine: _point(engine, make_engine(engine).execute(query, graph, config))
        for engine in ("rapid-analytics", "rapid-plus")
    }
