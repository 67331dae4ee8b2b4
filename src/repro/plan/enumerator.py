"""Plan enumeration: price the rule-based candidates, pick the cheapest.

The rule-based planner (:func:`repro.ntga.planner.plan_rapid_analytics`)
always fires the §6 composite rewrite when the grouping subqueries
overlap.  That heuristic loses when the composite pattern's secondary
properties make its α-join cycles scan and shuffle far more than the
subqueries would individually.  This module compiles the candidates the
rules can produce, with the planners that run them —

* ``composite`` / ``solo`` — the RAPIDAnalytics rewrite (Figure 6(b));
* ``sequential`` — per-subquery RAPID+ evaluation (Figure 6(a));
* ``sequential:stream={k}`` — join-order variants of the sequential
  plan's final map-only join (which aggregate file is streamed vs.
  side-loaded);

— prices the job list of each (:func:`price_jobs`) and picks per the
planner mode: ``rule`` keeps the first (rule-order) candidate, ``cost``
takes the cheapest, ``auto`` deviates from the rule plan only for a
win beyond :data:`AUTO_MARGIN`.  The chosen candidate's compiled plan is
the plan that runs.

A plan prices itself.  What *enters* a cycle is read off the job the
runner is about to execute (``input_bytes`` = raw bytes of ``inputs +
side_inputs``, ``map_tasks`` = split count of the stored ``inputs`` —
the shape :meth:`MapReduceRunner._read_inputs` charges), from the store
manifest or the upstream job's estimate; what *leaves* it (shuffle
bytes, output rows / bytes, distinct keys, hence ``reduce_tasks``) is
stated by the job's builder (``MapReduceJob.leaving``).  So a priced
cost is directly comparable to an executed
:attr:`repro.mapreduce.runner.JobStats.cost_seconds`, and the estimate
rides on the job into the :class:`JobStats` it is compared with.  No
builder, no estimate: the Hive executor decides its joins from
materialized table sizes, so nothing can state its volumes before it
runs — ``repro explain --engine hive-naive|hive-mqo`` and ``repro
compare`` report the measured plans instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import ambient, obs
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig
from repro.errors import PlanningError
from repro.mapreduce.cost import fold_seconds
from repro.mapreduce.job import MapReduceJob
from repro.ntga.physical import TripleGroupStore
from repro.ntga.planner import NTGAPlan, plan_rapid_analytics, plan_rapid_plus
from repro.obs.model import TraceEvent
from repro.plan.cardinality import CardinalityEstimator, StarEstimate
from repro.rdf.stats import GraphStats

#: ``auto`` abandons the rule plan only when the cheapest candidate's
#: priced cost beats it by more than this fraction — estimation noise
#: should not flap the plan.
AUTO_MARGIN = 0.1


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
    description: str
    jobs: tuple[JobEstimate, ...]

    @property
    def total_cost(self) -> float:
        return fold_seconds(job.cost for job in self.jobs)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
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
            "candidates": [candidate.as_dict() for candidate in self.candidates],
            "star_estimates": [star.as_dict() for star in self.star_estimates],
        }


def price_jobs(
    jobs: Sequence[MapReduceJob],
    estimator: CardinalityEstimator,
    config: EngineConfig,
) -> tuple[JobEstimate, ...]:
    """Price a job list in the order it will run, leaving each
    :class:`JobEstimate` on its job.

    Every path a job reads is either a stored equivalence-class file
    (exact ``(stored, raw)`` bytes from the store manifest,
    :attr:`CardinalityEstimator.stored_files`) or the output of an
    earlier job of the list (its estimated volumes, uncompressed, carried
    as floats)."""
    cluster, model = config.cluster, config.cost_model
    produced: dict[str, Any] = {}  # path -> the volumes leaving its job
    estimates = []
    for job in jobs:
        if job.leaving is None:
            raise PlanningError(
                f"job {job.name!r} cannot be priced: its builder states no volumes"
            )
        stored_input = map_tasks = 0
        upstream_input = 0.0
        for index, path in enumerate(job.inputs + job.side_inputs):
            upstream = produced.get(path)
            if upstream is None:
                stored, raw = estimator.stored_files[path]
                stored_input += raw
            else:
                stored = int(upstream.output_bytes)
                upstream_input += upstream.output_bytes
            if index < len(job.inputs):  # side inputs are broadcast, not split
                map_tasks += cluster.splits_for(stored)
        map_tasks = max(1, map_tasks)
        leaving = job.leaving(estimator, produced, map_tasks)
        produced[job.output] = leaving
        reduce_tasks = (
            0
            if job.is_map_only
            else max(1, min(int(max(1.0, leaving.distinct_keys)), cluster.reduce_slots))
        )
        volumes = dict(
            input_bytes=int(upstream_input + stored_input),
            shuffle_bytes=int(leaving.shuffle_bytes),
            output_bytes=int(leaving.output_bytes),
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
        )
        job.estimate = JobEstimate(
            name=job.name,
            map_only=job.is_map_only,
            output_rows=leaving.output_rows,
            cost=model.job_cost(cluster, **volumes),
            **volumes,
        )
        estimates.append(job.estimate)
    return tuple(estimates)


def _held(planner: Callable[..., NTGAPlan], *args: Any, **kwargs: Any):
    """Compile one candidate with its planner events (``composite``,
    ``rewrite-fallback``, ``representation``) held back: only the chosen
    plan's reach the trace (:func:`plan_adaptive` replays them)."""
    with obs.tracing() as held:
        plan = planner(*args, **kwargs)
    return plan, held.events


def _compiled_candidates(
    query: AnalyticalQuery,
    store: TripleGroupStore,
    stats: GraphStats,
    config: EngineConfig,
) -> tuple[
    list[tuple[CandidatePlan, NTGAPlan, list[TraceEvent]]], tuple[StarEstimate, ...]
]:
    """Every candidate -- compiled by the planner that would run it,
    priced off the compiled jobs, with its held-back planner events --
    rule order first, and the rule plan's star estimates."""
    estimator = CardinalityEstimator(stats, store)
    count = len(query.subqueries)
    # candidates[0] is what the rule planner builds, by construction.
    rule, events = _held(plan_rapid_analytics, query, store)
    if not rule.merged_ids:
        # No composite formed (OverlapError): the rule plan *is* the
        # sequential evaluation, streaming subquery 0.
        compiled = [("sequential", rule.description, rule, events)]
    elif count == 1:
        description = "single grouping subquery (no rewrite applicable)"
        compiled = [("solo", description, rule, events)]
    else:
        description = "composite rewrite: shared α-joins + fused TG_AgJ"
        compiled = [("composite", description, rule, events)]
    if count > 1:
        for streamed in range(0 if rule.merged_ids else 1, count):
            plan, events = _held(plan_rapid_plus, query, store, streamed=streamed)
            name = f"sequential:stream={streamed}" if streamed else "sequential"
            compiled.append((name, plan.description, plan, events))
    priced = [
        (CandidatePlan(name, description, price_jobs(plan.jobs, estimator, config)), plan, events)
        for name, description, plan, events in compiled
    ]
    # What the rule plan's builders asked the estimator for, pipeline by
    # pipeline (memoized there: nothing is estimated again).
    star_estimates = tuple(
        star
        for composite, _output in rule.defaults_by_plan
        for star in estimator.star_estimates(composite)
    )
    return priced, star_estimates


def enumerate_candidates(
    query: AnalyticalQuery,
    store: Any,
    stats: GraphStats,
    config: EngineConfig,
) -> tuple[list[CandidatePlan], tuple[StarEstimate, ...]]:
    """Every candidate the planner prices, rule-order first, and the
    rule plan's star estimates.

    ``candidates[0]`` is always what the rule-based planner builds
    (composite/solo when applicable, sequential otherwise), so
    :func:`choose` can fall back to it byte-identically.
    """
    compiled, star_estimates = _compiled_candidates(query, store, stats, config)
    return [candidate for candidate, _plan, _events in compiled], star_estimates


def choose(candidates: Sequence[CandidatePlan], mode: str) -> CandidatePlan:
    """Pick per the planner mode.

    Ties go to the earliest candidate (rule order), so equal-cost
    alternatives never flip the plan.
    """
    rule = candidates[0]
    if mode == "rule":
        return rule
    best = min(candidates, key=lambda candidate: candidate.total_cost)
    if mode == "cost":
        return best
    if best.total_cost < rule.total_cost * (1.0 - AUTO_MARGIN):
        return best
    return rule


def plan_adaptive(
    query: AnalyticalQuery,
    store: Any,
    stats: GraphStats,
    config: EngineConfig,
    mode: str,
) -> NTGAPlan:
    """Compile and price every candidate, pick one — the cost-based
    entry point, and the one place a choice is made and announced (the
    ``planner-choice`` event and the ``planner_choices_total`` counter).
    Returns the chosen candidate's compiled plan.

    The pick is a pure function of the query, the store, the profile,
    the config's cost model and the mode: the same inputs always choose
    the same candidate at the same priced cost.
    """
    compiled, star_estimates = _compiled_candidates(query, store, stats, config)
    candidates = [candidate for candidate, _plan, _events in compiled]
    chosen = choose(candidates, mode)
    _, plan, events = compiled[candidates.index(chosen)]
    for held in events:
        obs.event(held.name, held.attrs)
    plan.choice = PlanChoice(
        mode=mode,
        chosen=chosen.name,
        candidates=tuple(candidates),
        star_estimates=star_estimates,
    )
    obs.event(
        "planner-choice",
        {
            "mode": mode,
            "chosen": chosen.name,
            "candidates": len(candidates),
            "cost": round(chosen.total_cost, 6),
        },
    )
    if ambient.registry is not None:
        ambient.registry.counter(
            "planner_choices_total",
            "adaptive planner decisions by mode/candidate",
            ("mode", "chosen"),
        ).labels(mode=mode, chosen=chosen.name).inc()
    return plan
