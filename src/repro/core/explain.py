"""EXPLAIN: describe an engine's execution plan without running the data.

``explain(query, engine)`` compiles the query exactly as the engine
would (the Hive engines need a graph for their runtime map-join
decisions, so their explanation *executes* against the provided graph
and reports what actually ran) and renders a human-readable plan:
the analytical decomposition, the composite pattern and α conditions
(for RAPIDAnalytics), and the MR job sequence.

EXPLAIN is side-effect free: its probes (the Hive execution, the
candidate pricing) run under :func:`repro.ambient.detached`, which
suspends every telemetry sink at once, so ``explain(); run()`` leaves
exactly the trace, metrics and phase times a cold ``run()`` would.

When a graph is provided for an NTGA engine, the plan enumerator
(:mod:`repro.plan`) prices every candidate against the graph's
statistics and the report gains a planner section: the chosen plan,
every rejected alternative with its priced cost, and the per-star
cardinality estimates.  :func:`explain_report` returns the same
information as a ``"repro-explain/v1"`` dict — pass it an executed
:class:`~repro.core.results.ExecutionReport` to also get
estimated-vs-actual cardinalities per MR cycle.
"""

from __future__ import annotations

from repro import ambient
from repro.core.engines import make_engine, to_analytical
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig, ExecutionReport
from repro.errors import PlanningError
from repro.mapreduce.cost import fold_seconds
from repro.mapreduce.hdfs import HDFS
from repro.ntga.physical import load_triplegroups
from repro.ntga.planner import plan_rapid_analytics, plan_rapid_plus
from repro.rdf.graph import Graph
from repro.sparql.ast import SelectQuery

#: Schema tag of :func:`explain_report`'s output.
EXPLAIN_SCHEMA = "repro-explain/v1"


def describe_analytical(query: AnalyticalQuery) -> str:
    """The decomposition: one block per grouping subquery."""
    lines = ["analytical query:"]
    for index, subquery in enumerate(query.subqueries):
        sizes = ":".join(str(len(star)) for star in subquery.pattern.stars)
        groups = (
            "{" + ", ".join(v.name for v in subquery.group_by) + "}"
            if subquery.group_by
            else "ALL"
        )
        aggregates = ", ".join(str(a) for a in subquery.aggregates)
        lines.append(f"  GP{index + 1}: stars {sizes}, GROUP BY {groups}")
        lines.append(f"       aggregates: {aggregates}")
        if subquery.pattern.filters:
            lines.append(f"       filters: {len(subquery.pattern.filters)}")
    if query.outer_extends:
        rendered = ", ".join(f"{alias.n3()}" for alias, _ in query.outer_extends)
        lines.append(f"  outer expressions: {rendered}")
    lines.append(
        "  projection: " + " ".join(v.n3() for v in query.projection)
    )
    return "\n".join(lines)


def _explain_ntga(query: AnalyticalQuery, planner_name: str) -> str:
    # Planning only needs the store manifest shape, not real data: an
    # empty store still yields the structural plan (every star resolves
    # to the empty placeholder file).  Detached, like the Hive probe:
    # the planner's own events (composite, rewrite-fallback) belong to
    # executions, not explanations.
    with ambient.detached():
        hdfs = HDFS()
        store = load_triplegroups(Graph(), hdfs)
        planner = (
            plan_rapid_analytics
            if planner_name == "rapid-analytics"
            else plan_rapid_plus
        )
        plan = planner(query, store)
    lines = [f"{planner_name} plan ({len(plan.jobs)} MR cycles):"]
    for index, job in enumerate(plan.jobs):
        kind = "map-only" if job.is_map_only else "map-reduce"
        operators = "+".join(job.labels) if job.labels else "job"
        lines.append(f"  MR{index + 1} [{kind}] {operators}: {job.name}")
    if plan.description:
        lines.append("rewriting:")
        for line in plan.description.splitlines():
            lines.append("  " + line)
    return "\n".join(lines)


def _explain_hive(
    query: AnalyticalQuery, engine_name: str, graph: Graph, config: EngineConfig
) -> str:
    report = _probe_hive(query, engine_name, graph, config)
    assert report.stats is not None
    lines = [
        f"{engine_name} plan ({report.cycles} MR cycles, "
        f"{report.map_only_cycles} map-only; runtime map-join decisions "
        "reflect the provided graph):"
    ]
    for index, job in enumerate(report.stats.jobs):
        kind = "map-only" if job.map_only else "map-reduce"
        operators = "+".join(job.labels) if job.labels else "job"
        lines.append(f"  MR{index + 1} [{kind}] {operators}: {job.name}")
    return "\n".join(lines)


def _probe_hive(
    query: AnalyticalQuery, engine_name: str, graph: Graph, config: EngineConfig
) -> ExecutionReport:
    """Execute the Hive engine without observable side effects.

    The probe runs against its own HDFS instance already; detaching
    every sink keeps its spans, counters, metrics and phase times out of
    the caller's telemetry too."""
    with ambient.detached():
        return make_engine(engine_name).execute(query, graph, config)


def _plan_choice(
    query: AnalyticalQuery, engine: str, graph: Graph | None, config: EngineConfig
):
    """The cost planner's choice for a RAPIDAnalytics query over *graph*
    (None for any other engine, or without a graph).

    Returns the :class:`repro.plan.enumerator.PlanChoice` that
    :func:`~repro.plan.enumerator.plan_adaptive` attaches under the
    resolved planner mode (under ``"rule"`` the choice is the rule-order
    candidate, priced for comparison)."""
    if graph is None or engine != "rapid-analytics":
        return None
    from repro.plan.enumerator import plan_adaptive
    from repro.rdf.stats import cached_profile

    mode = ambient.PLANNER.resolve(config.planner)
    with ambient.detached():
        store = load_triplegroups(graph, HDFS())
        return plan_adaptive(query, store, cached_profile(graph), config, mode).choice


def _render_choice(choice) -> str:
    """The planner section: chosen plan, alternatives, estimates."""
    lines = [f"planner ({choice.mode} mode): chose {choice.chosen!r}"]
    for candidate in choice.candidates:
        marker = "*" if candidate.name == choice.chosen else " "
        lines.append(
            f"  {marker} {candidate.name}: cost={candidate.total_cost:.3f}s "
            f"({len(candidate.jobs)} cycles) — {candidate.description}"
        )
    lines.append(
        "  (Hive plans are measured, not priced: explain --engine "
        "hive-naive|hive-mqo, or repro compare)"
    )
    if choice.star_estimates:
        lines.append("estimated cardinalities:")
        for star in choice.star_estimates:
            keys = ", ".join(
                f"{key}[{selectivity:.3g}]" for key, selectivity in star.ordered_keys
            )
            lines.append(
                f"  star {star.star_index}: subjects={star.subjects} "
                f"groups={star.groups:.1f} expansion={star.expansion:.2f}"
            )
            if keys:
                lines.append(f"    evaluation order: {keys}")
    return "\n".join(lines)


def _sharding_dict(graph: Graph, config: EngineConfig) -> dict:
    """Per-shard cardinality and exchange estimates for a sharded config.

    Cardinalities are exact (the partition is computed, not sampled);
    the exchange-byte figure is an *estimate* — each cut subject-to-
    subject edge is assumed to ship one average-sized triplegroup
    emission across the boundary — so EXPLAIN stays execution-free.
    The measured volume lands in the ``exchange_bytes`` counter and the
    shard A/B report."""
    from repro.shard.partition import build_partition

    partition = build_partition(
        graph, ambient.PARTITIONER.resolve(config.partitioner), config.shards
    )
    total_groups = sum(partition.group_counts)
    total_weight = sum(partition.weights)
    average_group_bytes = total_weight // total_groups if total_groups else 0
    return {
        "strategy": partition.strategy,
        "shards": partition.shards,
        "per_shard": [
            {
                "shard": index,
                "groups": groups,
                "triples": triples,
                "estimated_bytes": weight,
            }
            for index, (groups, triples, weight) in enumerate(
                zip(
                    partition.group_counts,
                    partition.triple_counts,
                    partition.weights,
                )
            )
        ],
        "cut_edges": partition.cut_edges,
        "total_edges": partition.total_edges,
        "cut_fraction": round(partition.cut_fraction, 6),
        "estimated_exchange_bytes": partition.cut_edges * average_group_bytes,
    }


def _render_sharding(sharding: dict) -> str:
    lines = [
        f"sharding ({sharding['strategy']}, {sharding['shards']} shards):"
    ]
    for shard in sharding["per_shard"]:
        lines.append(
            f"  shard {shard['shard']}: {shard['groups']} triplegroups, "
            f"{shard['triples']} triples, ~{shard['estimated_bytes']}B"
        )
    lines.append(
        f"  edge cut: {sharding['cut_edges']}/{sharding['total_edges']} "
        f"({sharding['cut_fraction']:.1%}); estimated exchange "
        f"~{sharding['estimated_exchange_bytes']}B per α-join cycle"
    )
    return "\n".join(lines)


def explain(
    query: str | SelectQuery | AnalyticalQuery,
    engine: str = "rapid-analytics",
    graph: Graph | None = None,
    config: EngineConfig | None = None,
) -> str:
    """Render the decomposition plus the engine's MR plan.

    With a *graph*, a RAPIDAnalytics explanation gains the planner
    section: priced candidates, the mode's pick, and the per-star
    cardinality estimates that drove the pricing.  A sharded config
    (``shards > 1`` or an explicit partitioner) adds the partition
    layout: per-shard cardinalities, the edge cut, and the estimated
    cross-shard exchange volume."""
    analytical = to_analytical(query)
    config = config or EngineConfig()
    return _explain_text(
        analytical, engine, graph, config, _plan_choice(analytical, engine, graph, config)
    )


def _explain_text(
    analytical: AnalyticalQuery,
    engine: str,
    graph: Graph | None,
    config: EngineConfig,
    choice,
) -> str:
    """:func:`explain`'s text, the planner section rendered from *choice*."""
    sections = [describe_analytical(analytical)]
    if engine in ("rapid-analytics", "rapid-plus"):
        sections.append(_explain_ntga(analytical, engine))
        if choice is not None:
            sections.append(_render_choice(choice))
        if graph is not None and config.sharded:
            sections.append(_render_sharding(_sharding_dict(graph, config)))
    elif engine in ("hive-naive", "hive-mqo"):
        if graph is None:
            raise PlanningError(
                "explaining a Hive plan needs a graph (map-join decisions are "
                "made at run time from table sizes)"
            )
        sections.append(_explain_hive(analytical, engine, graph, config))
    elif engine == "reference":
        sections.append("reference plan: in-memory algebra evaluation (no MR cycles)")
    else:
        raise PlanningError(f"unknown engine {engine!r}")
    return "\n\n".join(sections)


def _decomposition_dict(query: AnalyticalQuery) -> dict:
    return {
        "subqueries": [
            {
                "stars": [len(star) for star in subquery.pattern.stars],
                "group_by": [v.name for v in subquery.group_by],
                "aggregates": [str(a) for a in subquery.aggregates],
                "filters": len(subquery.pattern.filters),
            }
            for subquery in query.subqueries
        ],
        "projection": [v.n3() for v in query.projection],
        "outer_expressions": [alias.n3() for alias, _ in query.outer_extends],
    }


def estimated_vs_actual(run: ExecutionReport) -> list[dict]:
    """Per-cycle estimate/actual comparison, read off the executed stats:
    every job the cost planner priced ran with its estimate on it
    (:meth:`WorkflowStats.priced_cycles`), so a rule-mode or Hive run
    compares nothing.

    A sharded run executes one priced cycle as ``parts`` per-shard jobs:
    the cycle's actual cost is the sum over them, its actual rows what
    the parts writing its logical output emitted -- the assemble jobs of
    a full cycle (its partial jobs emit shuffle pairs), every broadcast
    job of a map-only one; either way the parts of the estimate's own
    kind."""
    if run.stats is None:
        return []
    return [
        {
            "job": estimate.name,
            "parts": len(parts),
            "estimated_rows": round(estimate.output_rows, 3),
            "actual_rows": sum(
                part.output_records for part in parts if part.map_only == estimate.map_only
            ),
            "estimated_cost": round(estimate.cost, 6),
            "actual_cost": round(fold_seconds(part.cost_seconds for part in parts), 6),
        }
        for estimate, parts in run.stats.priced_cycles()
    ]


def render_estimated_vs_actual(comparison: list[dict]) -> str:
    """Terminal table for the per-cycle estimate/actual comparison."""
    lines = [
        "estimated vs actual (per MR cycle):",
        f"  {'job':28s} {'parts':>5s} {'est rows':>10s} {'act rows':>10s} "
        f"{'est cost':>10s} {'act cost':>10s}",
    ]
    for entry in comparison:
        lines.append(
            f"  {entry['job']:28s} {entry['parts']:5d} {entry['estimated_rows']:10.1f} "
            f"{entry['actual_rows']:10d} {entry['estimated_cost']:9.3f}s "
            f"{entry['actual_cost']:9.3f}s"
        )
    if any(entry["parts"] > 1 for entry in comparison):
        lines.append(
            "  (estimates price the unsharded cycle: no exchange term, no "
            "overlap credit; ROADMAP 3(b))"
        )
    return "\n".join(lines)


def explain_report(
    query: str | SelectQuery | AnalyticalQuery,
    engine: str = "rapid-analytics",
    graph: Graph | None = None,
    config: EngineConfig | None = None,
    run: ExecutionReport | None = None,
) -> dict:
    """The EXPLAIN report as a ``"repro-explain/v1"`` dict.

    Covers the decomposition and — for RAPIDAnalytics with a graph —
    the chosen plan, the rejected alternatives with their priced costs,
    and the cardinality estimates.  Pass *run* (an executed
    :class:`ExecutionReport`) to add ``estimated_vs_actual``: the
    chosen candidate's per-cycle row/cost estimates next to what the
    execution measured.  *run* may carry its own
    :class:`~repro.plan.enumerator.PlanChoice` (adaptive executions
    attach one), which then takes precedence in ``choice``.  The
    candidates are priced once, for both the text and ``choice``.
    """
    analytical = to_analytical(query)
    config = config or EngineConfig()
    priced = _plan_choice(analytical, engine, graph, config)
    report: dict = {
        "schema": EXPLAIN_SCHEMA,
        "engine": engine,
        "decomposition": _decomposition_dict(analytical),
        "plan_text": _explain_text(analytical, engine, graph, config, priced),
        "choice": None,
        "estimated_vs_actual": None,
    }
    choice = priced
    if run is not None and run.plan_choice is not None:
        choice = run.plan_choice
    if choice is not None:
        report["choice"] = choice.as_dict()
        if run is not None:
            report["estimated_vs_actual"] = estimated_vs_actual(run)
    if graph is not None and config.sharded:
        report["sharding"] = _sharding_dict(graph, config)
    return report
