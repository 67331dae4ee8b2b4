"""NTGA query planners: RAPID+ (sequential) and RAPIDAnalytics (shared).

*RAPID+* evaluates each grouping subquery independently: one α-less
TG join cycle per star-join of its graph pattern, then one TG_AgJ
cycle, then a final map-only join of the aggregated results — the
paper's Figure 6(a) workflow.

*RAPIDAnalytics* rewrites overlapping graph patterns into a composite
pattern evaluated once, fuses the independent Agg-Joins into a single
parallel TG_AgJ cycle, and joins the aggregated triplegroups map-only —
Figure 6(b).  When the patterns do not overlap it falls back to the
sequential plan, as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro import obs
from repro.core.query_model import AnalyticalQuery
from repro.errors import OverlapError
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.ntga.composite import (
    CompositePlan,
    build_composite_n,
    single_pattern_plan,
)
from repro.ntga.factorized import (
    RowFactor,
    plan_representation,
)
from repro.ntga.factorized import _compatible as _factor_compatible
from repro.ntga.physical import (
    AggRow,
    TripleGroupStore,
    build_agg_join_job,
    build_alpha_join_job,
    derive_join_steps,
    empty_group_rows,
    shared_prefilters,
)
from repro.rdf.terms import Term, Variable
from repro.sparql.expressions import (
    ExpressionError,
    evaluate as evaluate_expression,
)


def _to_term(value: object) -> Term:
    from repro.rdf.terms import IRI, Literal

    if isinstance(value, (IRI, Literal)):
        return value
    return Literal.from_python(value)  # type: ignore[arg-type]


def _compatible(left: dict, right: dict) -> bool:
    for variable, term in left.items():
        other = right.get(variable)
        if other is not None and other != term:
            return False
    return True


def build_final_join_job(
    name: str,
    query: AnalyticalQuery,
    agg_inputs: tuple[str, ...],
    subquery_count: int,
    output: str,
    subquery_ids: tuple[int, ...] | None = None,
    representation: str = "flat",
) -> MapReduceJob:
    """Map-only TG_Join of aggregated triplegroups plus the outer
    SELECT's expression extensions and projection.

    Empty-group default rows are injected into the agg files before this
    job runs (:func:`inject_default_rows`), so they flow through the
    normal input stream.

    ``subquery_ids`` names the composite-plan ids that belong to
    *query*, in subquery order.  A solo plan owns ids ``0..n-1`` (the
    default); a cross-request batch plan (:func:`plan_batch`) hands each
    member query its slice of the merged id space, making this job the
    paper's n-split (χ) back to one requester: it streams the first id,
    side-joins the rest, and ignores every other requester's rows.

    Under ``representation="factorized"`` the job materializes
    :class:`~repro.ntga.factorized.RowFactor` records — the base row
    plus each remaining id's base-compatible candidates — instead of the
    enumerated cartesian product; the engine's answer-delivery stage
    (:func:`repro.ntga.engine._collect_output`) enumerates, applies the
    outer extensions, and projects, reproducing this mapper's flat
    nested-loop order exactly.
    """
    extends = query.outer_extends
    projection = set(query.projection)
    ids = tuple(subquery_ids) if subquery_ids is not None else tuple(
        range(subquery_count)
    )
    factorized = representation == "factorized"

    def mapper_factory(side_data: dict[str, list[Any]]):
        rows_by_subquery: dict[int, list[dict[Variable, Term]]] = {
            i: [] for i in ids
        }
        row_tuples: dict[int, list[tuple]] = {i: [] for i in ids}
        for records in side_data.values():
            for record in records:
                if isinstance(record, AggRow) and record.subquery_id in rows_by_subquery:
                    rows_by_subquery[record.subquery_id].append(record.as_dict())
                    row_tuples[record.subquery_id].append(record.row)

        def mapper(record: Any) -> Iterable[dict[Variable, Term]]:
            if not isinstance(record, AggRow) or record.subquery_id != ids[0]:
                return
            if factorized:
                base = record.as_dict()
                parts = []
                for subquery_id in ids[1:]:
                    # Prefilter against the base bindings only — a stable
                    # filter (merged bindings extend the base), so the
                    # progressive checks in RowFactor.rows() see exactly
                    # the candidates the flat loop would.
                    part = tuple(
                        row
                        for row in row_tuples[subquery_id]
                        if _factor_compatible(base, row)
                    )
                    if not part:
                        return
                    parts.append(part)
                yield RowFactor(record.row, tuple(parts))
                return
            partials = [record.as_dict()]
            for subquery_id in ids[1:]:
                partials = [
                    {**left, **right}
                    for left in partials
                    for right in rows_by_subquery[subquery_id]
                    if _compatible(left, right)
                ]
                if not partials:
                    return
            for merged in partials:
                for alias, expression in extends:
                    try:
                        merged[alias] = _to_term(evaluate_expression(expression, merged))
                    except ExpressionError:
                        pass
                yield {
                    variable: term
                    for variable, term in merged.items()
                    if variable in projection
                }

        return mapper

    return MapReduceJob(
        name=name,
        inputs=(agg_inputs[0],),
        output=output,
        mapper_factory=mapper_factory,
        side_inputs=tuple(agg_inputs),
        labels=("TG_Join",),
        representation=representation,
    )


@dataclass
class NTGAPlan:
    """A compiled NTGA workflow.

    ``final_join_index`` marks the map-only TG_Join job (if any); the
    engine injects empty-group default rows into the agg outputs after
    the preceding jobs complete and before the final join runs.
    """

    jobs: list[MapReduceJob]
    final_output: str
    #: Default rows (GROUP BY ALL over empty input) that the engine must
    #: splice in if the corresponding subquery produced nothing.
    defaults_by_plan: list[tuple[CompositePlan, str]] = field(default_factory=list)
    final_join_index: int | None = None
    description: str = ""
    #: Intermediate-record representation every job of this plan was
    #: compiled for ("flat" or "factorized").
    representation: str = "flat"
    #: The cost-based planner's decision record (None when the plan came
    #: from the rule-based path — see :mod:`repro.plan.enumerator`).
    choice: Any = None

    @property
    def split_index(self) -> int:
        """Where the post-injection suffix starts (the final join, if
        any) — the same cut :attr:`BatchPlan.split_index` names."""
        if self.final_join_index is None:
            return len(self.jobs)
        return self.final_join_index


def plan_rapid_analytics(
    query: AnalyticalQuery,
    store: TripleGroupStore,
    prefix: str = "ra",
    fuse_aggregations: bool = True,
) -> NTGAPlan:
    """Build the RAPIDAnalytics workflow (falls back to sequential when
    the graph patterns do not overlap).

    ``fuse_aggregations=False`` evaluates the composite pattern once but
    runs one Agg-Join cycle *per subquery* — the paper's Figure 6(a)
    workflow — instead of the fused parallel operator of Figure 6(b).
    Used by the ablation study isolating the parallel-aggregation
    contribution.
    """
    if len(query.subqueries) == 1:
        composite = single_pattern_plan(query.subqueries[0])
    else:
        try:
            composite = build_composite_n(query.subqueries)
        except OverlapError:
            obs.event(
                "rewrite-fallback",
                {"planner": "rapid-analytics", "to": "rapid-plus"},
            )
            return plan_rapid_plus(query, store, prefix=prefix)
    representation = plan_representation(store)
    obs.event(
        "composite",
        {
            "stars": len(composite.stars),
            "subqueries": len(composite.subqueries),
            "fused": fuse_aggregations,
        },
    )

    jobs: list[MapReduceJob] = []
    prefilters = shared_prefilters(composite.subqueries)
    detail_path: str | None = None
    joined = frozenset({0})
    if len(composite.stars) > 1:
        steps = derive_join_steps(composite)
        previous: str | None = None
        for index, step in enumerate(steps):
            output = f"{prefix}/join{index}"
            jobs.append(
                build_alpha_join_job(
                    name=f"{prefix}:alpha-join-{index}",
                    step=step,
                    plan=composite,
                    store=store,
                    previous_output=previous,
                    joined_so_far=joined,
                    output=output,
                    prefilters=prefilters,
                    representation=representation,
                )
            )
            joined = joined | {step.new_star}
            previous = output
        detail_path = previous

    defaults: list[tuple[CompositePlan, str]] = []
    if fuse_aggregations or len(composite.subqueries) == 1:
        agg_output = f"{prefix}/agg"
        agg_outputs: tuple[str, ...] = (agg_output,)
        jobs.append(
            build_agg_join_job(
                name=f"{prefix}:agg-join",
                plan=composite,
                detail_input=detail_path,
                store=store,
                output=agg_output,
                prefilters=prefilters,
                representation=representation,
            )
        )
        defaults.append((composite, agg_output))
    else:
        # Figure 6(a): one Agg-Join cycle per subquery over the same
        # composite detail (sequential aggregation evaluation).
        outputs = []
        for subquery in composite.subqueries:
            sub_plan = CompositePlan(composite.stars, (subquery,))
            output = f"{prefix}/agg{subquery.subquery_id}"
            jobs.append(
                build_agg_join_job(
                    name=f"{prefix}:agg-join-{subquery.subquery_id}",
                    plan=sub_plan,
                    detail_input=detail_path,
                    store=store,
                    output=output,
                    prefilters=prefilters,
                    representation=representation,
                )
            )
            defaults.append((sub_plan, output))
            outputs.append(output)
        agg_outputs = tuple(outputs)

    final_join_index: int | None = None
    if len(query.subqueries) > 1 or query.outer_extends:
        final_output = f"{prefix}/result"
        final_join_index = len(jobs)
        jobs.append(
            build_final_join_job(
                name=f"{prefix}:final-join",
                query=query,
                agg_inputs=agg_outputs,
                subquery_count=len(query.subqueries),
                output=final_output,
                representation=representation,
            )
        )
    else:
        final_output = agg_outputs[0]
    return NTGAPlan(
        jobs=jobs,
        final_output=final_output,
        defaults_by_plan=defaults,
        final_join_index=final_join_index,
        description=composite.describe(),
        representation=representation,
    )


@dataclass
class BatchPlan:
    """A cross-request MQO workflow: shared evaluation, per-query split.

    ``jobs[:split_index]`` evaluate the merged composite pattern once
    (α-joins plus one fused TG_AgJ over *every* request's aggregations);
    ``jobs[split_index:]`` are the per-query map-only n-split joins.
    ``outputs[i]`` locates query *i*'s answers: ``(path, None)`` for a
    split-join output of solution rows, or ``(path, subquery_id)`` when
    the query needs no final join and reads its own id straight out of
    the shared agg file.
    """

    queries: list[AnalyticalQuery]
    jobs: list[MapReduceJob]
    split_index: int
    outputs: list[tuple[str, int | None]]
    #: Per-query slices of the merged subquery-id space.
    merged_ids: list[tuple[int, ...]]
    defaults_by_plan: list[tuple[CompositePlan, str]] = field(default_factory=list)
    description: str = ""
    #: Intermediate-record representation every job of this batch was
    #: compiled for ("flat" or "factorized").
    representation: str = "flat"


def plan_batch(
    queries: list[AnalyticalQuery],
    store: TripleGroupStore,
    prefix: str = "mqo",
) -> BatchPlan:
    """Compile several overlapping queries into one shared workflow.

    Flattens every query's grouping subqueries into one merged list
    (structurally identical subqueries from different queries collapse
    to a single entry), rewrites the lot into one composite pattern
    (:func:`build_composite_n` — raises :class:`OverlapError` when any
    pattern fails to overlap the base, in which case the caller falls
    back to solo execution), evaluates it with shared α-join cycles and
    a single fused TG_AgJ, then n-splits (χ) per requester with map-only
    joins over each query's slice of the merged id space.
    """
    # Canonical-fingerprint index map: each structurally-identical
    # subquery (GroupingSubquery is hashable post-canonicalization) maps
    # to the ordered list of merged slots holding a copy of it.  A query
    # that repeats a subquery claims one distinct slot per repetition
    # (the per-query ``used`` counter), so per-query multiplicity is
    # preserved — same semantics as the old quadratic scan, O(total).
    merged: list[Any] = []
    positions: dict[Any, list[int]] = {}
    merged_ids: list[tuple[int, ...]] = []
    for query in queries:
        used: dict[Any, int] = {}
        ids: list[int] = []
        for subquery in query.subqueries:
            slots = positions.setdefault(subquery, [])
            taken = used.get(subquery, 0)
            if taken < len(slots):
                index = slots[taken]
            else:
                index = len(merged)
                merged.append(subquery)
                slots.append(index)
            used[subquery] = taken + 1
            ids.append(index)
        merged_ids.append(tuple(ids))

    if len(merged) == 1:
        composite = single_pattern_plan(merged[0])
    else:
        composite = build_composite_n(merged)
    obs.event(
        "composite",
        {
            "stars": len(composite.stars),
            "subqueries": len(composite.subqueries),
            "queries": len(queries),
            "fused": True,
        },
    )

    representation = plan_representation(store)
    jobs: list[MapReduceJob] = []
    prefilters = shared_prefilters(composite.subqueries)
    detail_path: str | None = None
    joined = frozenset({0})
    if len(composite.stars) > 1:
        steps = derive_join_steps(composite)
        previous: str | None = None
        for index, step in enumerate(steps):
            output = f"{prefix}/join{index}"
            jobs.append(
                build_alpha_join_job(
                    name=f"{prefix}:alpha-join-{index}",
                    step=step,
                    plan=composite,
                    store=store,
                    previous_output=previous,
                    joined_so_far=joined,
                    output=output,
                    prefilters=prefilters,
                    representation=representation,
                )
            )
            joined = joined | {step.new_star}
            previous = output
        detail_path = previous

    agg_output = f"{prefix}/agg"
    jobs.append(
        build_agg_join_job(
            name=f"{prefix}:agg-join",
            plan=composite,
            detail_input=detail_path,
            store=store,
            output=agg_output,
            prefilters=prefilters,
            representation=representation,
        )
    )
    split_index = len(jobs)

    outputs: list[tuple[str, int | None]] = []
    for index, (query, ids) in enumerate(zip(queries, merged_ids)):
        if len(ids) > 1 or query.outer_extends:
            output = f"{prefix}/result{index}"
            jobs.append(
                build_final_join_job(
                    name=f"{prefix}:split-join-{index}",
                    query=query,
                    agg_inputs=(agg_output,),
                    subquery_count=len(ids),
                    output=output,
                    subquery_ids=ids,
                    representation=representation,
                )
            )
            outputs.append((output, None))
        else:
            # Single-subquery, no outer expressions: the query's answers
            # are exactly its id's rows in the shared agg file.
            outputs.append((agg_output, ids[0]))

    return BatchPlan(
        queries=list(queries),
        jobs=jobs,
        split_index=split_index,
        outputs=outputs,
        merged_ids=merged_ids,
        defaults_by_plan=[(composite, agg_output)],
        description=(
            f"{len(queries)}-query MQO batch over {len(merged)} merged "
            f"subqueries\n" + composite.describe()
        ),
        representation=representation,
    )


def plan_rapid_plus(
    query: AnalyticalQuery, store: TripleGroupStore, prefix: str = "rp"
) -> NTGAPlan:
    """Build the sequential RAPID+ workflow: each subquery evaluated on
    its own, then a map-only join of the aggregated results."""
    representation = plan_representation(store)
    jobs: list[MapReduceJob] = []
    agg_outputs: list[str] = []
    defaults: list[tuple[CompositePlan, str]] = []
    for index, subquery in enumerate(query.subqueries):
        composite = single_pattern_plan(subquery)
        sub_prefix = f"{prefix}/sq{index}"
        prefilters = shared_prefilters(composite.subqueries)
        detail_path: str | None = None
        if len(composite.stars) > 1:
            steps = derive_join_steps(composite)
            previous: str | None = None
            joined = frozenset({0})
            for step_index, step in enumerate(steps):
                output = f"{sub_prefix}/join{step_index}"
                jobs.append(
                    build_alpha_join_job(
                        name=f"{prefix}:sq{index}:join-{step_index}",
                        step=step,
                        plan=composite,
                        store=store,
                        previous_output=previous,
                        joined_so_far=joined,
                        output=output,
                        prefilters=prefilters,
                        representation=representation,
                    )
                )
                joined = joined | {step.new_star}
                previous = output
            detail_path = previous
        agg_output = f"{sub_prefix}/agg"
        jobs.append(
            build_agg_join_job(
                name=f"{prefix}:sq{index}:agg",
                plan=composite,
                detail_input=detail_path,
                store=store,
                output=agg_output,
                prefilters=prefilters,
                representation=representation,
            )
        )
        agg_outputs.append(agg_output)
        defaults.append((composite, agg_output))

    # RAPID+ agg jobs tag every subquery with id 0 (each plan is its own
    # composite); the file a row came from identifies its subquery.
    final_join_index: int | None = None
    if len(query.subqueries) > 1 or query.outer_extends:
        final_output = f"{prefix}/result"
        final_join_index = len(jobs)
        jobs.append(
            build_multi_file_result_join(
                name=f"{prefix}:final-join",
                query=query,
                agg_outputs=tuple(agg_outputs),
                output=final_output,
                representation=representation,
            )
        )
    else:
        final_output = agg_outputs[0]
    return NTGAPlan(
        jobs=jobs,
        final_output=final_output,
        defaults_by_plan=defaults,
        final_join_index=final_join_index,
        description=f"sequential evaluation of {len(query.subqueries)} subqueries",
        representation=representation,
    )


def build_multi_file_result_join(
    name: str,
    query: AnalyticalQuery,
    agg_outputs: tuple[str, ...],
    output: str,
    representation: str = "flat",
) -> MapReduceJob:
    """Map-only join of per-subquery aggregated outputs.

    Unlike the fused plan, each input file holds rows tagged with
    subquery id 0; the file itself identifies the subquery.  The Hive
    planners reuse this job for their final combination phase — the
    operation (broadcast join of tiny aggregate tables plus outer
    expressions) is identical across engines, and they keep the default
    flat output (factorized delivery is an NTGA-plan concern).
    """
    extends = query.outer_extends
    projection = set(query.projection)
    count = len(agg_outputs)
    factorized = representation == "factorized"

    def mapper_factory(side_data: dict[str, list[Any]]):
        rows_by_subquery: dict[int, list[dict[Variable, Term]]] = {}
        row_tuples: dict[int, list[tuple]] = {}
        for index, path in enumerate(agg_outputs):
            records = [
                record
                for record in side_data.get(path, [])
                if isinstance(record, AggRow)
            ]
            rows_by_subquery[index] = [record.as_dict() for record in records]
            row_tuples[index] = [record.row for record in records]

        def mapper(record: Any) -> Iterable[dict[Variable, Term]]:
            if not isinstance(record, AggRow):
                return
            if factorized:
                base = record.as_dict()
                parts = []
                for index in range(1, count):
                    part = tuple(
                        row
                        for row in row_tuples[index]
                        if _factor_compatible(base, row)
                    )
                    if not part:
                        return
                    parts.append(part)
                yield RowFactor(record.row, tuple(parts))
                return
            partials = [record.as_dict()]
            for index in range(1, count):
                partials = [
                    {**left, **right}
                    for left in partials
                    for right in rows_by_subquery[index]
                    if _compatible(left, right)
                ]
                if not partials:
                    return
            for merged in partials:
                for alias, expression in extends:
                    try:
                        merged[alias] = _to_term(evaluate_expression(expression, merged))
                    except ExpressionError:
                        pass
                yield {
                    variable: term
                    for variable, term in merged.items()
                    if variable in projection
                }

        return mapper

    return MapReduceJob(
        name=name,
        inputs=(agg_outputs[0],),
        output=output,
        mapper_factory=mapper_factory,
        side_inputs=agg_outputs[1:],
        labels=("TG_Join",),
        representation=representation,
    )


def inject_default_rows(plan: NTGAPlan, hdfs: HDFS) -> None:
    """Splice SPARQL's empty-group defaults into agg outputs when a
    GROUP-BY-ALL subquery produced no rows (see
    :func:`repro.ntga.physical.empty_group_rows`)."""
    for composite, path in plan.defaults_by_plan:
        if not hdfs.exists(path):
            continue
        file = hdfs.read(path)
        present = {
            record.subquery_id for record in file.records if isinstance(record, AggRow)
        }
        missing = [
            row for row in empty_group_rows(composite) if row.subquery_id not in present
        ]
        if missing:
            hdfs.write(path, list(file.records) + missing)
