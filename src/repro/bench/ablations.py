"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one optimization and measures the system with it
turned off:

* **combiner ablation** — TG_AgJ's mapper-side hash partial aggregation
  (Algorithm 3's ``multiAggMap``, the job's fold): without it every
  expanded solution is shuffled;
* **equivalence-class pruning ablation** — storing triplegroups per
  equivalence class lets a star pattern scan only matching files;
* **map-join threshold sweep** — Hive's small-table optimization;
* **shared-scan benefit** — composite (RAPIDAnalytics) vs sequential
  (RAPID+) input volumes on the same query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace

from repro.core.engines import make_engine, to_analytical
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner
from repro.ntga.engine import run_plan
from repro.ntga.physical import load_triplegroups
from repro.ntga.planner import plan_rapid_analytics
from repro.rdf.graph import Graph


@dataclass(frozen=True)
class AblationPoint:
    label: str
    cycles: int
    shuffle_bytes: int
    input_bytes: int
    cost_seconds: float


def _partials_of_one(job: MapReduceJob) -> MapReduceJob:
    """*job* without its fold: each item is shuffled as its own partial."""
    mapper, (zero, step) = job.mapper, job.fold

    def unfolded(record):
        for key, item in mapper(record):
            partial = zero(item)
            step(partial, item)
            yield key, partial

    return dataclass_replace(job, mapper=unfolded, fold=None)


def _ablation_point(
    graph: Graph,
    query: AnalyticalQuery,
    config: EngineConfig,
    strip_combiners: bool,
    fuse_aggregations: bool = True,
) -> AblationPoint:
    hdfs = HDFS(capacity=config.hdfs_capacity)
    store = load_triplegroups(graph, hdfs)
    plan = plan_rapid_analytics(query, store, fuse_aggregations=fuse_aggregations)
    if strip_combiners:
        plan.jobs = [_partials_of_one(job) if job.fold else job for job in plan.jobs]
    runner = MapReduceRunner(
        hdfs, config.cluster, config.cost_model, config.fault_plan
    )
    stats = run_plan(plan, runner, store, graph, config)
    return AblationPoint(
        label="without combiner" if strip_combiners else "with combiner",
        cycles=stats.cycles,
        shuffle_bytes=stats.total_shuffle_bytes,
        input_bytes=sum(job.input_bytes for job in stats.jobs),
        cost_seconds=stats.total_cost,
    )


def combiner_ablation(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> tuple[AblationPoint, AblationPoint]:
    """RAPIDAnalytics with vs. without mapper-side partial aggregation.

    Returns (with_combiner, without_combiner); the shuffle volume gap is
    the saving Algorithm 3's per-mapper hash aggregation buys.
    """
    config = config or EngineConfig()
    query = to_analytical(sparql)
    return (
        _ablation_point(graph, query, config, strip_combiners=False),
        _ablation_point(graph, query, config, strip_combiners=True),
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
    config = config or EngineConfig()
    query = to_analytical(sparql)
    parallel = _ablation_point(graph, query, config, strip_combiners=False)
    sequential = _ablation_point(
        graph, query, config, strip_combiners=False, fuse_aggregations=False
    )
    return (
        AblationPoint("fused parallel Agg-Join", parallel.cycles, parallel.shuffle_bytes, parallel.input_bytes, parallel.cost_seconds),
        AblationPoint("sequential Agg-Joins", sequential.cycles, sequential.shuffle_bytes, sequential.input_bytes, sequential.cost_seconds),
    )


def ec_pruning_ablation(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> tuple[AblationPoint, AblationPoint]:
    """Equivalence-class input pruning vs. scanning every stored file.

    Returns (pruned, unpruned); the input-bytes gap is the benefit of the
    per-equivalence-class triplegroup layout.
    """
    config = config or EngineConfig()
    query = to_analytical(sparql)
    pruned = _ablation_point(graph, query, config, strip_combiners=False)

    hdfs = HDFS(capacity=config.hdfs_capacity)
    store = load_triplegroups(graph, hdfs)
    all_paths = tuple(sorted(store.paths_by_class.values()))
    original = type(store).paths_for
    try:
        type(store).paths_for = lambda self, p_prim: all_paths  # type: ignore[method-assign]
        plan = plan_rapid_analytics(query, store)
        runner = MapReduceRunner(
            hdfs, config.cluster, config.cost_model, config.fault_plan
        )
        stats = run_plan(plan, runner, store, graph, config)
    finally:
        type(store).paths_for = original  # type: ignore[method-assign]
    unpruned = AblationPoint(
        label="full scan",
        cycles=stats.cycles,
        shuffle_bytes=stats.total_shuffle_bytes,
        input_bytes=sum(job.input_bytes for job in stats.jobs),
        cost_seconds=stats.total_cost,
    )
    return (
        AblationPoint("EC-pruned scan", pruned.cycles, pruned.shuffle_bytes, pruned.input_bytes, pruned.cost_seconds),
        unpruned,
    )


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
        points.append(
            (
                threshold,
                AblationPoint(
                    label=f"threshold={threshold}",
                    cycles=report.cycles,
                    shuffle_bytes=report.stats.total_shuffle_bytes,
                    input_bytes=sum(job.input_bytes for job in report.stats.jobs),
                    cost_seconds=report.cost_seconds,
                ),
            )
        )
    return points


def shared_scan_benefit(
    graph: Graph, sparql: str, config: EngineConfig | None = None
) -> dict[str, AblationPoint]:
    """Composite (shared) vs sequential pattern evaluation input volume."""
    config = config or EngineConfig()
    query = to_analytical(sparql)
    points: dict[str, AblationPoint] = {}
    for engine in ("rapid-analytics", "rapid-plus"):
        report = make_engine(engine).execute(query, graph, config)
        points[engine] = AblationPoint(
            label=engine,
            cycles=report.cycles,
            shuffle_bytes=report.stats.total_shuffle_bytes,
            input_bytes=sum(job.input_bytes for job in report.stats.jobs),
            cost_seconds=report.cost_seconds,
        )
    return points
