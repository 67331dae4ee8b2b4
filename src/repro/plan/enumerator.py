"""Plan enumeration: price the rule-based candidates, pick the cheapest.

The rule-based planner (:func:`repro.ntga.planner.plan_rapid_analytics`)
always fires the §6 composite rewrite when the grouping subqueries
overlap.  That heuristic loses when the composite pattern's secondary
properties make its α-join cycles scan and shuffle far more than the
subqueries would individually.  This module enumerates the candidates
the rules can produce —

* ``composite`` / ``solo`` — the RAPIDAnalytics rewrite (Figure 6(b));
* ``sequential`` — per-subquery RAPID+ evaluation (Figure 6(a));
* ``sequential:stream={k}`` — join-order variants of the sequential
  plan's final map-only join (which aggregate file is streamed vs.
  side-loaded);
* ``hive-naive`` / ``hive-mapjoin`` — the relational baselines, priced
  for the EXPLAIN report but never chosen (the NTGA engines do not
  execute them);

— prices every MR cycle of each with
:meth:`repro.mapreduce.cost.CostModel.job_cost` using the estimates of
:class:`repro.plan.cardinality.CardinalityEstimator`, and picks per the
planner mode: ``rule`` keeps the first (rule-order) candidate, ``cost``
takes the cheapest, ``auto`` deviates from the rule plan only for a
win beyond :data:`AUTO_MARGIN`.

The pricing mirrors the runner's accounting exactly in *shape*
(``input_bytes`` = raw input + side-input bytes, ``map_tasks`` = split
count of the stored inputs, ``reduce_tasks`` = distinct keys capped at
the cluster's reduce slots, ``output_bytes`` = raw output), so a priced
cost is directly comparable to an executed
:attr:`repro.mapreduce.runner.JobStats.cost_seconds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import obs
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig
from repro.errors import OverlapError, PlanningError
from repro.mapreduce.cost import ClusterConfig, CostModel
from repro.ntga.composite import (
    CompositePlan,
    build_composite_n,
    single_pattern_plan,
)
from repro.ntga.physical import derive_join_steps, shared_prefilters
from repro.ntga.planner import NTGAPlan, plan_rapid_analytics, plan_rapid_plus
from repro.plan.cardinality import CardinalityEstimator, StarEstimate
from repro.rdf.stats import GraphStats

#: ``auto`` abandons the rule plan only when the cheapest candidate's
#: priced cost beats it by more than this fraction — estimation noise
#: should not flap the plan.
AUTO_MARGIN = 0.1

#: Estimated serialized bytes of one shuffled ``(group key,
#: accumulator)`` pair of a TG_AgJ / group-by cycle.
AGG_PAIR_BYTES = 48
#: Estimated serialized bytes of one aggregated output row.
AGG_ROW_BYTES = 64
#: Estimated serialized bytes of one Hive intermediate row per bound
#: column.
HIVE_COLUMN_BYTES = 24


@dataclass(frozen=True)
class JobEstimate:
    """One priced MR cycle of a candidate plan."""

    name: str
    map_only: bool
    input_bytes: int
    shuffle_bytes: int
    output_bytes: int
    map_tasks: int
    reduce_tasks: int
    #: Estimated records leaving the cycle (compared against the actual
    #: ``JobStats.output_records`` in the EXPLAIN report).
    output_rows: float
    cost: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "map_only": self.map_only,
            "input_bytes": self.input_bytes,
            "shuffle_bytes": self.shuffle_bytes,
            "output_bytes": self.output_bytes,
            "map_tasks": self.map_tasks,
            "reduce_tasks": self.reduce_tasks,
            "output_rows": round(self.output_rows, 3),
            "cost": round(self.cost, 6),
        }


@dataclass(frozen=True)
class CandidatePlan:
    """One enumerated alternative with its end-to-end priced cost."""

    name: str
    #: ``"ntga"`` or ``"hive"`` — hive candidates are informational
    #: (priced for EXPLAIN, never executed by an NTGA engine).
    kind: str
    description: str
    executable: bool
    jobs: tuple[JobEstimate, ...]

    @property
    def total_cost(self) -> float:
        return sum(job.cost for job in self.jobs)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "executable": self.executable,
            "cost": round(self.total_cost, 6),
            "jobs": [job.as_dict() for job in self.jobs],
        }


@dataclass(frozen=True)
class PlanChoice:
    """The planner's decision record, attached to the compiled plan."""

    mode: str
    chosen: str
    candidates: tuple[CandidatePlan, ...]
    star_estimates: tuple[StarEstimate, ...]
    #: ``"priced"`` (enumerated this execution) or ``"cached"`` (the
    #: serve layer replayed a previous decision for this fingerprint).
    source: str = "priced"

    def candidate(self, name: str) -> CandidatePlan | None:
        for candidate in self.candidates:
            if candidate.name == name:
                return candidate
        return None

    @property
    def chosen_cost(self) -> float:
        found = self.candidate(self.chosen)
        return found.total_cost if found is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "chosen": self.chosen,
            "source": self.source,
            "candidates": [candidate.as_dict() for candidate in self.candidates],
            "star_estimates": [star.as_dict() for star in self.star_estimates],
        }


def _job(
    model: CostModel,
    cluster: ClusterConfig,
    *,
    name: str,
    input_bytes: float,
    shuffle_bytes: float,
    output_bytes: float,
    map_tasks: int,
    reduce_tasks: int,
    output_rows: float,
) -> JobEstimate:
    map_tasks = max(1, map_tasks)
    cost = model.job_cost(
        cluster,
        input_bytes=int(input_bytes),
        shuffle_bytes=int(shuffle_bytes),
        output_bytes=int(output_bytes),
        map_tasks=map_tasks,
        reduce_tasks=reduce_tasks,
    )
    return JobEstimate(
        name=name,
        map_only=reduce_tasks == 0,
        input_bytes=int(input_bytes),
        shuffle_bytes=int(shuffle_bytes),
        output_bytes=int(output_bytes),
        map_tasks=map_tasks,
        reduce_tasks=reduce_tasks,
        output_rows=output_rows,
        cost=cost,
    )


def _reduce_tasks(cluster: ClusterConfig, distinct_keys: float) -> int:
    return max(1, min(int(max(1.0, distinct_keys)), cluster.reduce_slots))


def _pipeline_estimates(
    composite: CompositePlan,
    estimator: CardinalityEstimator,
    config: EngineConfig,
    join_name: Callable[[int], str],
    agg_name: str,
) -> tuple[list[JobEstimate], list[StarEstimate], dict[int, float], float]:
    """Price one composite pipeline: α-join cycles plus the fused TG_AgJ.

    Returns ``(jobs, star estimates, groups per subquery id, agg output
    bytes)``.
    """
    cluster, model = config.cluster, config.cost_model
    prefilters = shared_prefilters(composite.subqueries)
    stars = [
        estimator.star_estimate(composite_star, index, prefilters)
        for index, composite_star in enumerate(composite.stars)
    ]
    jobs: list[JobEstimate] = []
    detail_rows = stars[0].groups
    detail_bytes = stars[0].filtered_bytes
    row_bytes = stars[0].bytes_per_group

    if len(composite.stars) > 1:
        steps = derive_join_steps(composite)
        previous_bytes: float | None = None
        for index, step in enumerate(steps):
            new = stars[step.new_star]
            new_files = estimator.star_classes(composite.stars[step.new_star].p_prim)
            if previous_bytes is None:
                files = dict(estimator.star_classes(composite.stars[0].p_prim))
                files.update(new_files)
                input_bytes = float(sum(raw for _stored, raw in files.values()))
                map_tasks = sum(
                    cluster.splits_for(stored) for stored, _raw in files.values()
                )
                shuffle = stars[0].filtered_bytes + new.filtered_bytes
            else:
                input_bytes = previous_bytes + sum(
                    raw for _stored, raw in new_files.values()
                )
                map_tasks = cluster.splits_for(int(previous_bytes)) + sum(
                    cluster.splits_for(stored) for stored, _raw in new_files.values()
                )
                shuffle = previous_bytes + new.filtered_bytes
            left_distinct = estimator.side_distinct(
                step.primary.left_side, stars, detail_rows
            )
            right_distinct = estimator.side_distinct(
                step.primary.right_side, stars, new.groups
            )
            out_rows = estimator.join_rows(
                detail_rows, new.groups, left_distinct, right_distinct
            )
            out_bytes = out_rows * (row_bytes + new.bytes_per_group)
            jobs.append(
                _job(
                    model,
                    cluster,
                    name=join_name(index),
                    input_bytes=input_bytes,
                    shuffle_bytes=shuffle,
                    output_bytes=out_bytes,
                    map_tasks=map_tasks,
                    reduce_tasks=_reduce_tasks(
                        cluster, max(left_distinct, right_distinct)
                    ),
                    output_rows=out_rows,
                )
            )
            detail_rows = out_rows
            detail_bytes = out_bytes
            row_bytes = row_bytes + new.bytes_per_group
            previous_bytes = out_bytes
        agg_input = detail_bytes
        agg_map_tasks = cluster.splits_for(int(detail_bytes))
    else:
        files = estimator.star_classes(composite.stars[0].p_prim)
        agg_input = float(sum(raw for _stored, raw in files.values()))
        agg_map_tasks = sum(
            cluster.splits_for(stored) for stored, _raw in files.values()
        )

    expansion = 1.0
    for star in stars:
        expansion *= max(1.0, star.expansion)
    solutions = detail_rows * expansion
    groups_by_subquery: dict[int, float] = {}
    for subquery in composite.subqueries:
        groups_by_subquery[subquery.subquery_id] = estimator.group_count(
            subquery, solutions, stars
        )
    total_groups = sum(groups_by_subquery.values())
    emitted = solutions * len(composite.subqueries)
    agg_map_tasks = max(1, agg_map_tasks)
    # Mapper-side hash partial aggregation (the combiner): at most one
    # shuffled pair per (group, map task).
    shuffle_rows = min(emitted, total_groups * agg_map_tasks)
    agg_out_bytes = total_groups * AGG_ROW_BYTES
    jobs.append(
        _job(
            model,
            cluster,
            name=agg_name,
            input_bytes=agg_input,
            shuffle_bytes=shuffle_rows * AGG_PAIR_BYTES,
            output_bytes=agg_out_bytes,
            map_tasks=agg_map_tasks,
            reduce_tasks=_reduce_tasks(cluster, total_groups),
            output_rows=total_groups,
        )
    )
    return jobs, stars, groups_by_subquery, agg_out_bytes


def _result_rows(groups: Sequence[float]) -> float:
    """Final-join output estimate: aggregate files join roughly 1:1 on
    their shared group keys, so the smallest file bounds the result."""
    return max(1.0, min(groups)) if groups else 1.0


def _ntga_candidates(
    query: AnalyticalQuery,
    estimator: CardinalityEstimator,
    config: EngineConfig,
) -> tuple[list[CandidatePlan], tuple[StarEstimate, ...]]:
    cluster, model = config.cluster, config.cost_model
    candidates: list[CandidatePlan] = []
    star_estimates: tuple[StarEstimate, ...] = ()

    composite: CompositePlan | None = None
    composite_name = "composite"
    if len(query.subqueries) == 1:
        composite = single_pattern_plan(query.subqueries[0])
        composite_name = "solo"
    else:
        try:
            composite = build_composite_n(query.subqueries)
        except OverlapError:
            composite = None

    if composite is not None:
        jobs, stars, groups_by_subquery, agg_bytes = _pipeline_estimates(
            composite,
            estimator,
            config,
            lambda index: f"ra:alpha-join-{index}",
            "ra:agg-join",
        )
        star_estimates = tuple(stars)
        if len(query.subqueries) > 1 or query.outer_extends:
            rows = _result_rows(list(groups_by_subquery.values()))
            jobs.append(
                _job(
                    model,
                    cluster,
                    name="ra:final-join",
                    # The fused agg file is both the streamed input and a
                    # side input of the map-only TG_Join (the runner
                    # charges it twice).
                    input_bytes=2 * agg_bytes,
                    shuffle_bytes=0,
                    output_bytes=rows * AGG_ROW_BYTES * max(1, len(query.subqueries)),
                    map_tasks=cluster.splits_for(int(agg_bytes)),
                    reduce_tasks=0,
                    output_rows=rows,
                )
            )
        candidates.append(
            CandidatePlan(
                name=composite_name,
                kind="ntga",
                description=(
                    "composite rewrite: shared α-joins + fused TG_AgJ"
                    if composite_name == "composite"
                    else "single grouping subquery (no rewrite applicable)"
                ),
                executable=True,
                jobs=tuple(jobs),
            )
        )

    if len(query.subqueries) > 1:
        shared_jobs: list[JobEstimate] = []
        sequential_stars: list[StarEstimate] = []
        agg_bytes_list: list[float] = []
        groups_list: list[float] = []
        for index, subquery in enumerate(query.subqueries):
            sub = single_pattern_plan(subquery)
            jobs, stars, groups_by_subquery, agg_bytes = _pipeline_estimates(
                sub,
                estimator,
                config,
                lambda step, index=index: f"rp:sq{index}:join-{step}",
                f"rp:sq{index}:agg",
            )
            shared_jobs.extend(jobs)
            sequential_stars.extend(stars)
            agg_bytes_list.append(agg_bytes)
            groups_list.append(sum(groups_by_subquery.values()))
        if not star_estimates:
            star_estimates = tuple(sequential_stars)
        rows = _result_rows(groups_list)
        out_bytes = rows * AGG_ROW_BYTES * len(query.subqueries)
        total_in = sum(agg_bytes_list)
        for streamed in range(len(query.subqueries)):
            final = _job(
                model,
                cluster,
                name="rp:final-join",
                input_bytes=total_in,
                shuffle_bytes=0,
                output_bytes=out_bytes,
                map_tasks=cluster.splits_for(int(agg_bytes_list[streamed])),
                reduce_tasks=0,
                output_rows=rows,
            )
            name = "sequential" if streamed == 0 else f"sequential:stream={streamed}"
            description = (
                f"sequential evaluation of {len(query.subqueries)} subqueries"
            )
            if streamed:
                description += f"; final join streams subquery {streamed}"
            candidates.append(
                CandidatePlan(
                    name=name,
                    kind="ntga",
                    description=description,
                    executable=True,
                    jobs=tuple(shared_jobs) + (final,),
                )
            )
    return candidates, star_estimates


def _hive_candidates(
    query: AnalyticalQuery,
    estimator: CardinalityEstimator,
    config: EngineConfig,
) -> list[CandidatePlan]:
    """Informational pricing of the relational baselines over VP tables."""
    cluster, model = config.cluster, config.cost_model
    candidates: list[CandidatePlan] = []
    for forced, name, description in (
        (False, "hive-naive", "Hive over VP tables, threshold map-joins"),
        (True, "hive-mapjoin", "Hive over VP tables, all joins broadcast"),
    ):
        jobs: list[JobEstimate] = []
        agg_bytes_list: list[float] = []
        groups_list: list[float] = []
        for query_index, subquery in enumerate(query.subqueries):
            sub = single_pattern_plan(subquery)
            prefilters = shared_prefilters(sub.subqueries)
            stars = [
                estimator.star_estimate(composite_star, index, prefilters)
                for index, composite_star in enumerate(sub.stars)
            ]
            star_rows: list[float] = []
            star_bytes: list[float] = []
            for star_index, (composite_star, star) in enumerate(zip(sub.stars, stars)):
                tables = [
                    float(max(1, estimator.payload_bytes(key.property)))
                    for key in sorted(composite_star.pattern.props(), key=str)
                ]
                rows = star.groups * star.expansion
                width = max(1, len(composite_star.pattern.props()))
                out_bytes = rows * HIVE_COLUMN_BYTES * width
                star_rows.append(rows)
                star_bytes.append(out_bytes)
                label = f"hive:sq{query_index}-star{star_index}"
                if len(tables) == 1:
                    jobs.append(
                        _job(
                            model,
                            cluster,
                            name=f"{label}:scan",
                            input_bytes=tables[0],
                            shuffle_bytes=0,
                            output_bytes=out_bytes,
                            map_tasks=cluster.splits_for(int(tables[0])),
                            reduce_tasks=0,
                            output_rows=rows,
                        )
                    )
                    continue
                streamed = max(tables)
                sides = sum(tables) - streamed
                mapjoin = forced or all(
                    table <= config.mapjoin_threshold
                    for table in tables
                    if table != streamed
                )
                if mapjoin:
                    jobs.append(
                        _job(
                            model,
                            cluster,
                            name=f"{label}:map-join",
                            input_bytes=streamed + sides,
                            shuffle_bytes=0,
                            output_bytes=out_bytes,
                            map_tasks=cluster.splits_for(int(streamed)),
                            reduce_tasks=0,
                            output_rows=rows,
                        )
                    )
                else:
                    jobs.append(
                        _job(
                            model,
                            cluster,
                            name=f"{label}:reduce-join",
                            input_bytes=streamed + sides,
                            shuffle_bytes=streamed + sides,
                            output_bytes=out_bytes,
                            map_tasks=sum(
                                cluster.splits_for(int(table)) for table in tables
                            ),
                            reduce_tasks=_reduce_tasks(cluster, float(star.subjects)),
                            output_rows=rows,
                        )
                    )
            rows = star_rows[0]
            bytes_ = star_bytes[0]
            if len(sub.stars) > 1:
                for step_index, step in enumerate(derive_join_steps(sub)):
                    new_rows = star_rows[step.new_star]
                    new_bytes = star_bytes[step.new_star]
                    left_distinct = estimator.side_distinct(
                        step.primary.left_side, stars, rows
                    )
                    right_distinct = estimator.side_distinct(
                        step.primary.right_side, stars, new_rows
                    )
                    out_rows = estimator.join_rows(
                        rows, new_rows, left_distinct, right_distinct
                    )
                    out_bytes = out_rows * (
                        (bytes_ / max(rows, 1.0)) + (new_bytes / max(new_rows, 1.0))
                    )
                    label = f"hive:sq{query_index}-join{step_index}"
                    if forced or min(bytes_, new_bytes) <= config.mapjoin_threshold:
                        jobs.append(
                            _job(
                                model,
                                cluster,
                                name=f"{label}:map-join",
                                input_bytes=bytes_ + new_bytes,
                                shuffle_bytes=0,
                                output_bytes=out_bytes,
                                map_tasks=cluster.splits_for(
                                    int(max(bytes_, new_bytes))
                                ),
                                reduce_tasks=0,
                                output_rows=out_rows,
                            )
                        )
                    else:
                        jobs.append(
                            _job(
                                model,
                                cluster,
                                name=f"{label}:reduce-join",
                                input_bytes=bytes_ + new_bytes,
                                shuffle_bytes=bytes_ + new_bytes,
                                output_bytes=out_bytes,
                                map_tasks=cluster.splits_for(int(bytes_))
                                + cluster.splits_for(int(new_bytes)),
                                reduce_tasks=_reduce_tasks(
                                    cluster, max(left_distinct, right_distinct)
                                ),
                                output_rows=out_rows,
                            )
                        )
                    rows = out_rows
                    bytes_ = out_bytes
            groups = estimator.group_count(sub.subqueries[0], rows, stars)
            map_tasks = max(1, cluster.splits_for(int(bytes_)))
            shuffle_rows = min(rows, groups * map_tasks)
            agg_out = groups * AGG_ROW_BYTES
            jobs.append(
                _job(
                    model,
                    cluster,
                    name=f"hive:sq{query_index}:group-by",
                    input_bytes=bytes_,
                    shuffle_bytes=shuffle_rows * AGG_PAIR_BYTES,
                    output_bytes=agg_out,
                    map_tasks=map_tasks,
                    reduce_tasks=_reduce_tasks(cluster, groups),
                    output_rows=groups,
                )
            )
            agg_bytes_list.append(agg_out)
            groups_list.append(groups)
        if len(query.subqueries) > 1 or query.outer_extends:
            rows = _result_rows(groups_list)
            jobs.append(
                _job(
                    model,
                    cluster,
                    name="hive:final-combination",
                    input_bytes=sum(agg_bytes_list),
                    shuffle_bytes=0,
                    output_bytes=rows * AGG_ROW_BYTES * max(1, len(query.subqueries)),
                    map_tasks=cluster.splits_for(int(agg_bytes_list[0])),
                    reduce_tasks=0,
                    output_rows=rows,
                )
            )
        candidates.append(
            CandidatePlan(
                name=name,
                kind="hive",
                description=description,
                executable=False,
                jobs=tuple(jobs),
            )
        )
    return candidates


def enumerate_candidates(
    query: AnalyticalQuery,
    store: Any,
    stats: GraphStats,
    config: EngineConfig,
) -> tuple[list[CandidatePlan], tuple[StarEstimate, ...]]:
    """Every candidate the planner prices, rule-order first.

    ``candidates[0]`` is always what the rule-based planner would build
    (composite/solo when applicable, sequential otherwise), so
    :func:`choose` can fall back to it byte-identically.
    """
    estimator = CardinalityEstimator(stats, store)
    candidates, star_estimates = _ntga_candidates(query, estimator, config)
    candidates.extend(_hive_candidates(query, estimator, config))
    if not any(candidate.executable for candidate in candidates):
        raise PlanningError("no executable candidate plan for query")
    return candidates, star_estimates


def choose(candidates: Sequence[CandidatePlan], mode: str) -> CandidatePlan:
    """Pick per the planner mode over the executable candidates.

    Ties go to the earliest candidate (rule order), so equal-cost
    alternatives never flip the plan.
    """
    executable = [candidate for candidate in candidates if candidate.executable]
    if not executable:
        raise PlanningError("no executable candidate plan")
    rule = executable[0]
    if mode == "rule":
        return rule
    best = min(executable, key=lambda candidate: candidate.total_cost)
    if mode == "cost":
        return best
    if best.total_cost < rule.total_cost * (1.0 - AUTO_MARGIN):
        return best
    return rule


def build_candidate(
    query: AnalyticalQuery, store: Any, name: str
) -> NTGAPlan:
    """Compile the candidate *name* into an executable NTGA plan."""
    if name in ("composite", "solo"):
        return plan_rapid_analytics(query, store)
    if name == "sequential":
        return plan_rapid_plus(query, store)
    if name.startswith("sequential:stream="):
        return plan_rapid_plus(query, store, streamed=int(name.split("=", 1)[1]))
    raise PlanningError(f"unknown candidate plan {name!r}")


def plan_adaptive(
    query: AnalyticalQuery,
    store: Any,
    stats: GraphStats,
    config: EngineConfig,
    mode: str,
    decision: str | None = None,
) -> NTGAPlan:
    """Enumerate, price, pick, and compile — the cost-based entry point.

    *decision* (a candidate name from the serve layer's plan cache)
    short-circuits the pick: the candidates are still priced for the
    EXPLAIN report, but the cached choice wins as long as it still names
    an executable candidate.
    """
    candidates, star_estimates = enumerate_candidates(query, store, stats, config)
    source = "priced"
    chosen: CandidatePlan | None = None
    if decision is not None:
        chosen = next(
            (
                candidate
                for candidate in candidates
                if candidate.name == decision and candidate.executable
            ),
            None,
        )
        if chosen is not None:
            source = "cached"
    if chosen is None:
        chosen = choose(candidates, mode)
    plan = build_candidate(query, store, chosen.name)
    plan.choice = PlanChoice(
        mode=mode,
        chosen=chosen.name,
        candidates=tuple(candidates),
        star_estimates=star_estimates,
        source=source,
    )
    obs.event(
        "planner-choice",
        {
            "mode": mode,
            "chosen": chosen.name,
            "source": source,
            "candidates": len(candidates),
            "cost": round(chosen.total_cost, 6),
        },
    )
    return plan
