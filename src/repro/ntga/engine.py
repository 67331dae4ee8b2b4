"""NTGA execution engines: RAPID+ and RAPIDAnalytics."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro import ambient, obs
from repro.ambient import PLANNER
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig, ExecutionReport, Row
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner, WorkflowStats
from repro.ntga.composite import CompositePlan
from repro.ntga.factorized import (
    RowFactor,
    active_representation,
    resolve_representation,
)
from repro.ntga.physical import AggRow, TripleGroupStore, load_triplegroups
from repro.ntga.planner import (
    NTGAPlan,
    finish_answer,
    inject_default_rows,
    plan_batch,
    plan_rapid_analytics,
    plan_rapid_plus,
)
from repro.rdf.graph import Graph

Planner = Callable[[AnalyticalQuery, TripleGroupStore], NTGAPlan]


def deliver_rows(
    hdfs: HDFS,
    query: AnalyticalQuery,
    path: str,
    subquery_id: int | None = None,
) -> list[Row]:
    """Answer delivery, for every engine: read *query*'s answers from
    *path*, project aggregated rows, apply DISTINCT and the result
    modifiers.  ``subquery_id`` selects a single id's rows out of a
    shared agg file (:func:`repro.ntga.planner.build_result_join`'s
    source convention); None accepts every aggregated row.

    Factorized result-join outputs
    (:class:`~repro.ntga.factorized.RowFactor`) are enumerated here —
    and only here — then get the outer SELECT's expression extensions
    and projection that the flat TG_Join mapper would have applied
    before materializing."""
    rows: list[Row] = []
    projection = set(query.projection)
    extends = query.outer_extends
    for record in hdfs.read(path).records:
        if isinstance(record, AggRow):
            if subquery_id is not None and record.subquery_id != subquery_id:
                continue
            rows.append(
                {v: t for v, t in record.as_dict().items() if v in projection}
            )
        elif isinstance(record, RowFactor):
            for merged in record.rows():
                rows.append(finish_answer(merged, extends, projection))
        elif isinstance(record, dict):
            rows.append(record)
    if query.distinct:
        rows = deduplicate_rows(rows)
    from repro.core.reference import apply_result_modifiers

    return apply_result_modifiers(query, rows)


def _collect_rows(hdfs: HDFS, plan: NTGAPlan, query: AnalyticalQuery) -> list[Row]:
    return deliver_rows(hdfs, query, *plan.outputs[0])


def deduplicate_rows(rows: list[Row]) -> list[Row]:
    """Order-preserving DISTINCT over solution rows."""
    seen: set[frozenset] = set()
    unique: list[Row] = []
    for row in rows:
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def run_plan(
    plan: NTGAPlan,
    runner: MapReduceRunner,
    store: TripleGroupStore,
    graph: Graph,
    config: EngineConfig,
) -> WorkflowStats:
    """Drive one compiled plan: the jobs before ``plan.split_index``,
    empty-group default injection, then the rest as a continuation of
    the same stats — a failure there resubmits only that suffix (the
    prefix's outputs are already durable and, if recovery is on,
    ledger-committed; ``run_workflow`` handles checkpoint/resume).

    More than one shard swaps in :class:`ShardedExecutor`'s versions of
    the same calls and gathers the parts of every file an answer is
    read from at the end; the sequence is the same (one shard is one
    cluster).
    """
    split = plan.split_index
    sharded = config.shards > 1
    if sharded:
        from repro.shard.execution import ShardedExecutor

        executor = ShardedExecutor(runner, store, graph, config)
        run, inject_defaults = executor.run, executor.inject_defaults
    else:
        run = runner.run_workflow
        inject_defaults = partial(inject_default_rows, hdfs=runner.hdfs)
    stats = run(plan.jobs[:split])
    inject_defaults(plan)
    if split < len(plan.jobs):
        stats = run(plan.jobs[split:], stats=stats)
    if sharded:
        for path in dict.fromkeys(path for path, _ in plan.outputs):
            executor.gather(path)
    return runner.finalize(stats)


@contextmanager
def _driven(
    name: str,
    attrs: dict,
    make_plan: Callable[[TripleGroupStore], NTGAPlan],
    graph: Graph,
    config: EngineConfig,
) -> Iterator[tuple[HDFS, TripleGroupStore, NTGAPlan, WorkflowStats]]:
    """The one execution driver behind :meth:`NTGAEngine.execute` and
    :func:`execute_batch`: load the triplegroups, plan under the
    config's representation, record the plan on its span, run it.  The
    body (answer delivery) runs inside the engine span, so the counters
    it records land there."""
    hdfs = HDFS(capacity=config.hdfs_capacity)
    with obs.span(name, "engine", attrs):
        with obs.span("load", "stage"):
            store = load_triplegroups(graph, hdfs)
        with obs.span("plan", "stage") as plan_span:
            # The config's explicit representation (serve) wins over
            # any ambient context (bench A/B harness); planners read
            # it — and the pricing model for "auto" — from here.
            with active_representation(
                resolve_representation(config.representation),
                config.cost_model,
            ):
                plan = make_plan(store)
            if plan_span is not None:
                plan_span.attrs.update(
                    jobs=len(plan.jobs),
                    description=plan.description,
                    representation=plan.representation,
                )
        runner = MapReduceRunner(
            hdfs,
            config.cluster,
            config.cost_model,
            config.fault_plan,
            recovery=config.recovery,
        )
        yield hdfs, store, plan, run_plan(plan, runner, store, graph, config)


class NTGAEngine:
    """Common driver for both NTGA planners.

    ``adaptive=True`` (RAPIDAnalytics only) routes planning through the
    cost-based enumerator when the resolved planner mode is not
    ``"rule"``: candidates are priced against the graph's statistics and
    the cheapest wins (see :mod:`repro.plan`).  RAPID+ stays rule-based
    — it *is* the sequential baseline the enumerator prices against.
    """

    def __init__(self, name: str, planner: Planner, adaptive: bool = False):
        self.name = name
        self._planner = planner
        self._adaptive = adaptive

    def _plan(
        self,
        query: AnalyticalQuery,
        store: TripleGroupStore,
        graph: Graph,
        config: EngineConfig,
    ) -> NTGAPlan:
        if self._adaptive:
            mode = PLANNER.resolve(config.planner)
            if mode != "rule":
                from repro.plan.enumerator import plan_adaptive
                from repro.rdf.stats import cached_profile

                plan = plan_adaptive(
                    query,
                    store,
                    cached_profile(graph),
                    config,
                    mode,
                    decision=config.plan_decision,
                )
                if ambient.registry is not None:
                    ambient.registry.counter(
                        "planner_choices_total",
                        "adaptive planner decisions by mode/candidate/source",
                        ("mode", "chosen", "source"),
                    ).labels(
                        mode=plan.choice.mode,
                        chosen=plan.choice.chosen,
                        source=plan.choice.source,
                    ).inc()
                return plan
        return self._planner(query, store)

    def execute(
        self, query: AnalyticalQuery, graph: Graph, config: EngineConfig | None = None
    ) -> ExecutionReport:
        config = config or EngineConfig()
        with _driven(
            self.name,
            {"engine": self.name},
            lambda store: self._plan(query, store, graph, config),
            graph,
            config,
        ) as (hdfs, store, plan, stats):
            return ExecutionReport(
                engine=self.name,
                rows=_collect_rows(hdfs, plan, query),
                stats=stats,
                plan=[job.name for job in plan.jobs],
                load_bytes=store.total_bytes,
                plan_description=plan.description,
                plan_choice=plan.choice,
            )


@dataclass
class BatchReport:
    """What one cross-request MQO batch execution produced: per-query
    answer rows plus the single shared workflow's accounting."""

    engine: str
    queries: list[AnalyticalQuery]
    rows_by_query: list[list[Row]]
    stats: WorkflowStats
    plan: list[str]
    load_bytes: int
    plan_description: str

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def cost_seconds(self) -> float:
        return self.stats.total_cost


def execute_batch(
    queries: list[AnalyticalQuery],
    graph: Graph,
    config: EngineConfig | None = None,
    prefix: str = "mqo",
    composite: CompositePlan | None = None,
) -> BatchReport:
    """Execute several overlapping queries as one shared NTGA workflow.

    The cross-request analogue of :meth:`NTGAEngine.execute`: one
    triplegroup load, one composite plan over every query's subqueries
    (:func:`repro.ntga.planner.plan_batch`), shared α-join + fused
    TG_AgJ cycles run once, then per-query map-only split joins — with
    the same empty-group default injection, fault-plan, checkpointed
    recovery and sharding semantics as a solo run (the split joins
    continue the same :class:`~repro.mapreduce.runner.WorkflowStats`).

    Raises :class:`~repro.errors.OverlapError` when the queries' graph
    patterns do not all overlap; callers fall back to solo execution.
    A caller that already built the batch's composite
    (:func:`repro.ntga.planner.batch_composite`) passes it on.
    """
    config = config or EngineConfig()
    with _driven(
        "mqo-batch",
        {"engine": "rapid-analytics", "queries": len(queries)},
        lambda store: plan_batch(queries, store, prefix=prefix, composite=composite),
        graph,
        config,
    ) as (hdfs, store, plan, stats):
        return BatchReport(
            engine="rapid-analytics",
            queries=list(queries),
            rows_by_query=[
                deliver_rows(hdfs, query, *output)
                for query, output in zip(queries, plan.outputs)
            ],
            stats=stats,
            plan=[job.name for job in plan.jobs],
            load_bytes=store.total_bytes,
            plan_description=plan.description,
        )


def rapid_plus_engine() -> NTGAEngine:
    return NTGAEngine("rapid-plus", lambda q, s: plan_rapid_plus(q, s))


def rapid_analytics_engine() -> NTGAEngine:
    return NTGAEngine(
        "rapid-analytics", lambda q, s: plan_rapid_analytics(q, s), adaptive=True
    )
