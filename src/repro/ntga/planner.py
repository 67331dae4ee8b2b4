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
from typing import Any, Iterable, Sequence

from repro import obs
from repro.core.query_model import AnalyticalQuery, GroupingSubquery
from repro.errors import OverlapError
from repro.mapreduce.cost import fold_seconds
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.ntga.composite import (
    CompositePlan,
    build_composite_n,
    single_pattern_plan,
)
from repro.ntga.factorized import RowFactor, _compatible, plan_representation
from repro.ntga.physical import (
    AGG_ROW_BYTES,
    AggRow,
    CycleVolumes,
    TripleGroupStore,
    build_agg_join_job,
    build_alpha_join_job,
    derive_join_steps,
    empty_group_rows,
    shared_prefilters,
    to_term,
)
from repro.sparql.expressions import (
    ExpressionError,
    evaluate as evaluate_expression,
)


def finish_answer(merged: dict, extends: tuple, projection: set) -> dict:
    """One joined row's answer: the outer SELECT's expression extensions
    (an expression error leaves its alias unbound), then the projection.
    Mutates *merged*."""
    for alias, expression in extends:
        try:
            merged[alias] = to_term(evaluate_expression(expression, merged))
        except ExpressionError:
            pass
    return {
        variable: term for variable, term in merged.items() if variable in projection
    }


class _SideIndex:
    """One side of a result join: its rows in side order, indexed on the
    variables every row binds.

    A row that disagrees with a partial on one of those variables fails
    :func:`_compatible`, so :meth:`candidates` hands out only the rows
    that agree on the ones the partial binds -- still in side order, and
    still to be checked on everything else.  One index per such subset,
    built the first time a partial binds exactly it.
    """

    __slots__ = ("rows", "variables", "_bindings", "_indexes")

    def __init__(self, rows: list, factorized: bool):
        self.rows = rows
        self._bindings = [dict(row) for row in rows] if factorized else rows
        common = list(self._bindings[0]) if rows else []
        for bindings in self._bindings[1:]:
            common = [variable for variable in common if variable in bindings]
        self.variables = tuple(common)
        self._indexes: dict[tuple, dict[tuple, list]] = {}

    def candidates(self, partial: dict) -> Sequence:
        """The rows that can be :func:`_compatible` with *partial*."""
        bound = tuple([v for v in self.variables if partial.get(v) is not None])
        if not bound:
            return self.rows
        index = self._indexes.get(bound)
        if index is None:
            index = self._indexes[bound] = {}
            for row, bindings in zip(self.rows, self._bindings):
                index.setdefault(tuple([bindings[v] for v in bound]), []).append(row)
        return index.get(tuple([partial[v] for v in bound]), ())


def build_result_join(
    name: str,
    query: AnalyticalQuery,
    sources: Sequence[tuple[str, int | None]],
    output: str,
    representation: str = "flat",
) -> MapReduceJob:
    """Map-only TG_Join of *query*'s aggregated subqueries plus the outer
    SELECT's expression extensions and projection.

    ``sources[i]`` locates subquery *i*'s rows: ``(path, id)`` is one
    id's rows out of a TG_AgJ file several subqueries share, ``(path,
    None)`` a whole file, which then identifies the subquery by itself.
    The first source is streamed, the rest are side-joined in order.
    Ids over one fused file are the RAPIDAnalytics plan and, over a
    requester's slice of a batch's merged id space, the paper's n-split
    (χ): every other requester's rows are ignored.  Whole files are
    RAPID+ and the Hive planners' final combination -- the operation
    (broadcast join of tiny aggregate tables) is identical across
    engines; Hive keeps the default flat output.

    What is charged: a shared file is side-loaded even when it is also
    the stream (its other ids are the join's right-hand sides), a whole
    file only when it is not.  So the fused plan reads its agg file
    twice -- and is priced so, because the cost planner reads a cycle's
    input off this job's ``inputs + side_inputs`` the way the runner
    does (:func:`repro.plan.enumerator.price_jobs`).

    Empty-group default rows are injected into the agg files before this
    job runs (:func:`inject_default_rows`), so they flow through the
    normal input stream.  A side's rows are probed through a key index
    (:class:`_SideIndex`), not scanned: the compatible rows and their
    order are the scan's.

    Under ``representation="factorized"`` the job materializes
    :class:`~repro.ntga.factorized.RowFactor` records — the base row
    plus each remaining source's base-compatible candidates — instead of
    the enumerated cartesian product; the engine's answer-delivery stage
    (:func:`repro.ntga.engine.deliver_rows`) enumerates, extends and
    projects, reproducing this mapper's flat nested-loop order exactly.
    """
    sources = tuple(sources)  # the job's own: its mapper reads them at run time
    extends = query.outer_extends
    projection = set(query.projection)
    factorized = representation == "factorized"
    streamed_id = sources[0][1]

    def mapper_factory(side_data: dict[str, list[Any]]):
        joined = [
            _SideIndex(
                [
                    record.row if factorized else record.as_dict()
                    for record in side_data.get(path, ())
                    if isinstance(record, AggRow)
                    and (subquery_id is None or record.subquery_id == subquery_id)
                ],
                factorized,
            )
            for path, subquery_id in sources[1:]
        ]

        def mapper(record: Any) -> Iterable[Any]:
            if not isinstance(record, AggRow) or (
                streamed_id is not None and record.subquery_id != streamed_id
            ):
                return
            base = record.as_dict()
            if factorized:
                parts = []
                for side in joined:
                    # Prefilter against the base bindings only — a stable
                    # filter (merged bindings extend the base), so the
                    # progressive checks in RowFactor.rows() see exactly
                    # the candidates the flat loop would.
                    part = tuple(
                        row for row in side.candidates(base) if _compatible(base, row)
                    )
                    if not part:
                        return
                    parts.append(part)
                yield RowFactor(record.row, tuple(parts))
                return
            partials = [base]
            for side in joined:
                partials = [
                    {**left, **right}
                    for left in partials
                    for right in side.candidates(left)
                    if _compatible(left, right.items())
                ]
                if not partials:
                    return
            for merged in partials:
                yield finish_answer(merged, extends, projection)

        return mapper

    def leaving(estimator: Any, upstream: dict[str, CycleVolumes], map_tasks: int) -> CycleVolumes:
        # Aggregate files join roughly 1:1 on their shared group keys, so
        # the smallest source bounds the result.
        groups = [
            fold_seconds(upstream[path].groups.values())
            if subquery_id is None
            else upstream[path].groups[subquery_id]
            for path, subquery_id in sources
        ]
        rows = max(1.0, min(groups))
        return CycleVolumes(
            shuffle_bytes=0.0,
            output_rows=rows,
            output_bytes=rows * AGG_ROW_BYTES * len(sources),
        )

    return MapReduceJob(
        name=name,
        inputs=(sources[0][0],),
        output=output,
        mapper_factory=mapper_factory,
        side_inputs=tuple(
            dict.fromkeys(
                path
                for index, (path, subquery_id) in enumerate(sources)
                if index or subquery_id is not None
            )
        ),
        labels=("TG_Join",),
        representation=representation,
        leaving=leaving,
    )


@dataclass
class NTGAPlan:
    """A compiled NTGA workflow for one query or for a batch of them.

    ``jobs[:split_index]`` evaluate the graph patterns and aggregate
    (α-joins, TG_AgJ); the engine then injects empty-group default rows
    into the agg outputs, and ``jobs[split_index:]`` are the map-only
    result joins, one per query that needs one.  ``outputs[i]`` locates
    query *i*'s answers the way :func:`build_result_join` locates a
    source: its result join's output of solution rows ``(path, None)``,
    or -- single subquery, no outer expressions -- its own rows in an
    agg file.
    """

    jobs: list[MapReduceJob]
    split_index: int
    outputs: list[tuple[str, int | None]]
    #: Default rows (GROUP BY ALL over empty input) that the engine must
    #: splice in if the corresponding subquery produced nothing.
    defaults_by_plan: list[tuple[CompositePlan, str]] = field(default_factory=list)
    description: str = ""
    #: Intermediate-record representation every job of this plan was
    #: compiled for ("flat" or "factorized").
    representation: str = "flat"
    #: Per-query slices of the composite's subquery-id space (RAPID+
    #: evaluates no composite: empty).
    merged_ids: list[tuple[int, ...]] = field(default_factory=list)
    #: The cost-based planner's decision record (None when the plan came
    #: from the rule-based path — see :mod:`repro.plan.enumerator`).
    choice: Any = None

    @property
    def final_join_index(self) -> int | None:
        """The first result join, if the plan has any."""
        return self.split_index if self.split_index < len(self.jobs) else None


def _pipeline(
    composite: CompositePlan,
    store: TripleGroupStore,
    representation: str,
    join_name: str,
    agg_name: str,
    directory: str,
    fuse_aggregations: bool = True,
) -> tuple[list[MapReduceJob], list[tuple[CompositePlan, str]]]:
    """The one walk of a composite pattern's pipeline: its α-join cycles
    into a detail file, then TG_AgJ over it.  Returns the jobs and, per
    TG_AgJ, ``(the plan it aggregates, its output)`` -- what default-row
    injection and the result joins need.

    ``fuse_aggregations=False`` runs one Agg-Join cycle *per subquery*
    over the same composite detail (Figure 6(a), sequential aggregation
    evaluation) instead of the fused parallel operator of Figure 6(b).
    """
    jobs: list[MapReduceJob] = []
    prefilters = shared_prefilters(composite.subqueries)
    detail_path: str | None = None
    if len(composite.stars) > 1:
        joined = frozenset({0})
        for index, step in enumerate(derive_join_steps(composite)):
            output = f"{directory}/join{index}"
            jobs.append(
                build_alpha_join_job(
                    name=f"{join_name}-{index}",
                    step=step,
                    plan=composite,
                    store=store,
                    previous_output=detail_path,
                    joined_so_far=joined,
                    output=output,
                    prefilters=prefilters,
                    representation=representation,
                )
            )
            joined = joined | {step.new_star}
            detail_path = output

    if fuse_aggregations or len(composite.subqueries) == 1:
        aggregations = [(composite, agg_name, f"{directory}/agg")]
    else:
        aggregations = [
            (
                CompositePlan(composite.stars, (subquery,)),
                f"{agg_name}-{subquery.subquery_id}",
                f"{directory}/agg{subquery.subquery_id}",
            )
            for subquery in composite.subqueries
        ]
    for plan, name, output in aggregations:
        jobs.append(
            build_agg_join_job(
                name=name,
                plan=plan,
                detail_input=detail_path,
                store=store,
                output=output,
                prefilters=prefilters,
                representation=representation,
            )
        )
    return jobs, [(plan, output) for plan, _name, output in aggregations]


def _answers(
    jobs: list[MapReduceJob],
    query: AnalyticalQuery,
    sources: Sequence[tuple[str, int | None]],
    name: str,
    output: str,
    representation: str,
) -> tuple[str, int | None]:
    """Append *query*'s result join to *jobs* if it needs one; returns
    where its answers are."""
    if len(sources) == 1 and not query.outer_extends:
        # Single subquery, no outer expressions: the answers are exactly
        # that subquery's aggregated rows.
        return sources[0]
    jobs.append(build_result_join(name, query, sources, output, representation))
    return output, None


def merge_subqueries(
    queries: Sequence[AnalyticalQuery],
) -> tuple[list[GroupingSubquery], list[tuple[int, ...]]]:
    """Every query's grouping subqueries as one merged list, and each
    query's slice of it.

    Structurally identical subqueries from different queries collapse to
    a single entry (GroupingSubquery is hashable post-canonicalization):
    each maps to the ordered list of merged slots holding a copy of it,
    and a query that repeats a subquery claims one distinct slot per
    repetition (the per-query ``used`` counter), so per-query
    multiplicity is preserved.
    """
    merged: list[GroupingSubquery] = []
    positions: dict[GroupingSubquery, list[int]] = {}
    merged_ids: list[tuple[int, ...]] = []
    for query in queries:
        used: dict[GroupingSubquery, int] = {}
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
    return merged, merged_ids


def batch_composite(queries: Sequence[AnalyticalQuery]) -> CompositePlan:
    """The composite pattern :func:`plan_batch` evaluates for *queries*:
    their merged subquery list (:func:`merge_subqueries`) rewritten into
    one pattern.  Raises :class:`OverlapError` when the patterns do not
    all overlap."""
    return _composite_of(merge_subqueries(queries)[0])


def _composite_of(merged: list[GroupingSubquery]) -> CompositePlan:
    if len(merged) == 1:
        return single_pattern_plan(merged[0])
    return build_composite_n(merged)


def plan_batch(
    queries: list[AnalyticalQuery],
    store: TripleGroupStore,
    prefix: str = "mqo",
    fuse_aggregations: bool = True,
    composite: CompositePlan | None = None,
) -> NTGAPlan:
    """Compile one or more overlapping queries into one shared workflow
    (Figure 6(b); a solo RAPIDAnalytics plan is the batch of one).

    Flattens every query's grouping subqueries into one merged list
    (:func:`merge_subqueries`), rewrites the lot into one composite
    pattern (:func:`batch_composite` — raises :class:`OverlapError` when
    any pattern fails to overlap the base, in which case the caller
    falls back to solo or sequential execution), evaluates it with
    shared α-join cycles and a single fused TG_AgJ, then n-splits (χ)
    per requester with map-only joins over each query's slice of the
    merged id space.  A caller that already holds *queries*'
    :func:`batch_composite` passes it as *composite*.
    """
    merged, merged_ids = merge_subqueries(queries)
    if composite is None:
        composite = _composite_of(merged)
    solo = len(queries) == 1
    attrs = {"stars": len(composite.stars), "subqueries": len(composite.subqueries)}
    if not solo:
        attrs["queries"] = len(queries)
    obs.event("composite", {**attrs, "fused": fuse_aggregations})

    representation = plan_representation(store)
    jobs, defaults = _pipeline(
        composite,
        store,
        representation,
        f"{prefix}:alpha-join",
        f"{prefix}:agg-join",
        prefix,
        fuse_aggregations,
    )
    split_index = len(jobs)
    # Fused, every merged id's rows share the one agg file; unfused, id
    # *i* has file *i* to itself.
    agg_files = [path for _plan, path in defaults]
    if len(agg_files) == 1:
        agg_files *= len(merged)
    outputs = [
        _answers(
            jobs,
            query,
            [(agg_files[i], i) for i in ids],
            f"{prefix}:final-join" if solo else f"{prefix}:split-join-{index}",
            f"{prefix}/result" if solo else f"{prefix}/result{index}",
            representation,
        )
        for index, (query, ids) in enumerate(zip(queries, merged_ids))
    ]
    description = composite.describe()
    if not solo:
        description = (
            f"{len(queries)}-query MQO batch over {len(merged)} merged "
            f"subqueries\n" + description
        )
    return NTGAPlan(
        jobs=jobs,
        split_index=split_index,
        outputs=outputs,
        defaults_by_plan=defaults,
        description=description,
        representation=representation,
        merged_ids=merged_ids,
    )


def plan_rapid_analytics(
    query: AnalyticalQuery,
    store: TripleGroupStore,
    prefix: str = "ra",
    fuse_aggregations: bool = True,
) -> NTGAPlan:
    """Build the RAPIDAnalytics workflow: :func:`plan_batch` over the one
    query, falling back to sequential when its graph patterns do not
    overlap.  ``fuse_aggregations=False`` is the ablation isolating the
    parallel-aggregation contribution (see :func:`_pipeline`).
    """
    try:
        return plan_batch([query], store, prefix, fuse_aggregations)
    except OverlapError:
        obs.event(
            "rewrite-fallback",
            {"planner": "rapid-analytics", "to": "rapid-plus"},
        )
        return plan_rapid_plus(query, store, prefix=prefix)


def plan_rapid_plus(
    query: AnalyticalQuery,
    store: TripleGroupStore,
    prefix: str = "rp",
    streamed: int = 0,
) -> NTGAPlan:
    """Build the sequential RAPID+ workflow (Figure 6(a)): each subquery
    evaluated on its own, then a map-only join of the aggregated results
    that streams subquery *streamed*'s file and side-loads the others
    (which one is cheapest to stream is the cost planner's to say)."""
    representation = plan_representation(store)
    jobs: list[MapReduceJob] = []
    defaults: list[tuple[CompositePlan, str]] = []
    for index, subquery in enumerate(query.subqueries):
        sub_jobs, sub_defaults = _pipeline(
            single_pattern_plan(subquery),
            store,
            representation,
            f"{prefix}:sq{index}:join",
            f"{prefix}:sq{index}:agg",
            f"{prefix}/sq{index}",
        )
        jobs += sub_jobs
        defaults += sub_defaults
    split_index = len(jobs)
    # RAPID+ agg jobs tag every subquery with id 0 (each plan is its own
    # composite); the file a row came from identifies its subquery.
    sources: list[tuple[str, int | None]] = [(path, None) for _plan, path in defaults]
    description = f"sequential evaluation of {len(query.subqueries)} subqueries"
    if streamed:
        sources.insert(0, sources.pop(streamed))
        description += f"; final join streams subquery {streamed}"
    output = _answers(
        jobs, query, sources, f"{prefix}:final-join", f"{prefix}/result", representation
    )
    return NTGAPlan(
        jobs=jobs,
        split_index=split_index,
        outputs=[output],
        defaults_by_plan=defaults,
        description=description,
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
