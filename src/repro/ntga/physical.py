"""Physical MapReduce operators for NTGA plans.

This module turns a :class:`repro.ntga.composite.CompositePlan` into
simulated MapReduce jobs:

* **TG_OptGrpFilter** runs map-side inside whichever job first touches a
  star's input (join or Agg-Join), as in the paper's Algorithm 1;
* **TG_AlphaJoin** is one full MR cycle per join edge of the composite
  pattern (Algorithm 2), pruning combinations that satisfy no α;
* **TG_AgJ** is one full MR cycle computing *all* requested
  grouping-aggregations in parallel (Algorithm 3), with mapper-side
  hash partial aggregation modeled by the combiner;
* **TG_Join** of aggregated triplegroups is a final map-only cycle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.core.query_model import PropKey, StarPattern
from repro.errors import PlanningError
from repro.mapreduce import cost
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.ntga.composite import CanonicalSubquery, CompositePlan, CompositeStar, object_filters
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.operators import (
    AlphaCondition,
    JoinSide,
    any_alpha_satisfied,
)
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    JoinPlan,
    TripleGroup,
    group_by_subject,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term, Variable, term_sort_key
from repro.sparql.aggregates import UNBOUND, accumulator_factory, make_accumulator
from repro.sparql.expressions import evaluate_filter, term_value


# ---------------------------------------------------------------------------
# Storage: subject triplegroups by equivalence class
# ---------------------------------------------------------------------------


@dataclass
class TripleGroupStore:
    """Manifest of the NTGA pre-processing output on HDFS.

    Subject triplegroups are stored in one file per equivalence class
    (the set of property IRIs of the subject), mirroring the paper's
    "stored in text files based on equivalence class".  Star patterns
    then read only the files whose class contains all their primary
    properties.
    """

    paths_by_class: dict[frozenset, str] = field(default_factory=dict)
    #: Per-class ``(stored_bytes, raw_bytes)`` of each equivalence-class
    #: file — the cost-based planner's exact per-star input volumes
    #: (stored feeds split counts, raw feeds scan cost).
    bytes_by_class: dict[frozenset, tuple[int, int]] = field(default_factory=dict)
    #: Placeholder file returned when no equivalence class matches a
    #: star's primaries — the star simply has no candidate subjects.
    empty_path: str = ""
    total_bytes: int = 0
    #: Byte totals of the stored groups under the flat (triple-list) and
    #: factorized (columnar) encodings — the inputs to the cost model's
    #: ``"auto"`` representation choice (see
    #: :meth:`repro.mapreduce.cost.CostModel.choose_representation`).
    flat_bytes: int = 0
    factorized_bytes: int = 0

    def paths_for(self, p_prim: frozenset[PropKey]) -> tuple[str, ...]:
        required = frozenset(key.property for key in p_prim)
        matching = tuple(
            sorted(
                path
                for ec, path in self.paths_by_class.items()
                if required <= ec
            )
        )
        if not matching and self.empty_path:
            return (self.empty_path,)
        return matching


#: (graph -> (graph.version, ordered [(ec, groups, raw_size, fact_size)])).  The
#: classified-triplegroup layout is a pure function of the graph; the
#: benchmark harness executes several engines over one graph, and without
#: this cache each execution re-groups every triple and re-sizes every
#: group.  Reusing the same TripleGroup objects also lets their
#: per-instance memos (props/sizes/object lists) survive across runs.
_CLASSIFIED_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[int, list]]" = (
    weakref.WeakKeyDictionary()
)


def _classified_groups(
    graph: Graph,
) -> list[tuple[frozenset, list[TripleGroup], int, int]]:
    """Subject triplegroups bucketed by equivalence class, in the
    deterministic storage order, with each bucket's raw byte size under
    the flat and factorized encodings."""
    if cost.SIZE_CACHE_ENABLED:
        cached = _CLASSIFIED_CACHE.get(graph)
        if cached is not None and cached[0] == graph.version:
            return cached[1]
    by_class: dict[frozenset, list[TripleGroup]] = {}
    for group in group_by_subject(graph):
        ec = frozenset(t.property for t in group.triples)
        by_class.setdefault(ec, []).append(group)
    classified = [
        (
            ec,
            by_class[ec],
            cost.estimate_total_size(by_class[ec]),
            sum(group.factorized_size() for group in by_class[ec]),
        )
        for ec in sorted(by_class, key=lambda s: sorted(i.value for i in s))
    ]
    if cost.SIZE_CACHE_ENABLED:
        _CLASSIFIED_CACHE[graph] = (graph.version, classified)
    return classified


def load_triplegroups(graph: Graph, hdfs: HDFS, prefix: str = "ntga") -> TripleGroupStore:
    """NTGA pre-processing: group triples by subject, store per class."""
    store = TripleGroupStore(empty_path=f"{prefix}/ec/_empty")
    hdfs.write(store.empty_path, [])
    for index, (ec, groups, raw, fact_raw) in enumerate(_classified_groups(graph)):
        path = f"{prefix}/ec/{index:05d}"
        file = hdfs.write(path, groups, raw_hint=raw)
        store.paths_by_class[ec] = path
        store.bytes_by_class[ec] = (file.size_bytes, raw)
        store.total_bytes += file.size_bytes
        store.flat_bytes += raw
        store.factorized_bytes += fact_raw
    return store


# ---------------------------------------------------------------------------
# Star filtering (map-side σ^γopt)
# ---------------------------------------------------------------------------


def make_star_filter(
    composite_star: CompositeStar,
    prefilters: Sequence = (),
    representation: str = "flat",
) -> Callable[[TripleGroup], "TripleGroup | FactorizedRelation | None"]:
    """Per-record TG_OptGrpFilter for one composite star.

    Applies the primary-property requirement, concrete-object
    constraints, and any pushed-down single-variable object filters.
    Under ``representation="factorized"`` surviving groups leave σ^γopt
    as :class:`~repro.ntga.factorized.FactorizedRelation` columns over
    the star's (interned) property schema — the conversion point where
    the shuffle/materialization payload sheds the per-record property
    names.  Column order preserves triple order, so downstream expansion
    stays bit-identical to the flat path.
    """
    p_prim = composite_star.p_prim
    relevant = composite_star.all_props()
    # Per-triple checks, keyed by the property IRI itself (constraint and
    # push-down keys are never type-qualified): the required object, and
    # the pushed filters with the variable they test.
    required_object = {
        key.property: term for key, term in composite_star.constraints.items()
    }
    pushed: dict[IRI, tuple[Variable, list]] = {}
    for key, expressions in object_filters(
        composite_star.pattern, tuple(prefilters)
    ).items():
        variable = composite_star.pattern.pattern_for(key).object
        if isinstance(variable, Variable):
            pushed[key.property] = (variable, expressions)
    schema = (
        schema_for(frozenset(relevant)) if representation == "factorized" else None
    )

    def filter_one(group: TripleGroup) -> "TripleGroup | FactorizedRelation | None":
        projected = group.project(relevant)
        if required_object or pushed:
            kept = []
            for triple in projected.triples:
                required = required_object.get(triple.property)
                if required is not None and triple.object != required:
                    continue
                tests = pushed.get(triple.property)
                if tests is not None:
                    bindings = {tests[0]: triple.object}
                    if not all(evaluate_filter(e, bindings) for e in tests[1]):
                        continue
                kept.append(triple)
            projected = TripleGroup(group.subject, tuple(kept))
        if p_prim <= projected.props():
            if schema is None:
                return projected
            fact = FactorizedRelation.from_triplegroup(projected, schema)
            if obs._ACTIVE is not None:
                obs.count("factorized_relations")
                obs.count(
                    "factorized_bytes_saved",
                    projected.estimated_size() - fact.estimated_size(),
                )
            return fact
        if obs._ACTIVE is not None:
            obs.count("sigma_dropped_triplegroups")
        return None

    return filter_one


def shared_prefilters(subqueries: Sequence[CanonicalSubquery]) -> tuple:
    """Filters safe to push into composite star formation: those present
    (structurally identical after canonicalization) in *every* subquery."""
    if not subqueries:
        return ()
    common = set(subqueries[0].filters)
    for subquery in subqueries[1:]:
        common &= set(subquery.filters)
    return tuple(common)


# ---------------------------------------------------------------------------
# Join planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeSides:
    variable: Variable
    left_side: JoinSide
    right_side: JoinSide


@dataclass(frozen=True)
class JoinStep:
    """One TG_AlphaJoin cycle: join the accumulated components with one
    new composite star."""

    new_star: int
    primary: EdgeSides
    extras: tuple[EdgeSides, ...] = ()


def _side_for(star: StarPattern, star_index: int, variable: Variable, pattern) -> JoinSide:
    if isinstance(star.subject, Variable) and star.subject == variable:
        return JoinSide("subject", None, star_index)
    from repro.core.query_model import prop_key_of

    return JoinSide("object", prop_key_of(pattern), star_index)


def derive_join_steps(plan: CompositePlan) -> list[JoinStep]:
    """Left-deep join order over the composite pattern's join graph."""
    composite = plan.composite_graph_pattern()
    if not composite.is_connected():
        raise PlanningError("composite graph pattern is not connected")
    edges = composite.star_joins()
    joined = {0}
    steps: list[JoinStep] = []
    remaining = list(edges)
    while len(joined) < len(plan.stars):
        connecting = [
            e
            for e in remaining
            if (e.left_star in joined) != (e.right_star in joined)
        ]
        if not connecting:
            raise PlanningError("no connecting join edge found")
        # Group every edge that attaches the same new star in this step.
        first = connecting[0]
        new_star = first.right_star if first.left_star in joined else first.left_star
        attaching = [
            e for e in connecting if new_star in (e.left_star, e.right_star)
        ]
        sides: list[EdgeSides] = []
        for edge in attaching:
            if edge.left_star in joined:
                old_star, old_pattern = edge.left_star, edge.left_pattern
                new_pattern = edge.right_pattern
            else:
                old_star, old_pattern = edge.right_star, edge.right_pattern
                new_pattern = edge.left_pattern
            sides.append(
                EdgeSides(
                    edge.variable,
                    _side_for(plan.stars[old_star].pattern, old_star, edge.variable, old_pattern),
                    _side_for(plan.stars[new_star].pattern, new_star, edge.variable, new_pattern),
                )
            )
            remaining.remove(edge)
        steps.append(JoinStep(new_star, sides[0], tuple(sides[1:])))
        joined.add(new_star)
    return steps


def restricted_alphas(
    plan: CompositePlan, star_set: frozenset[int]
) -> list[AlphaCondition]:
    """α conditions limited to the stars joined so far (partial pruning)."""
    conditions = []
    for subquery in plan.subqueries:
        required: set[PropKey] = set()
        for star, composite_index in zip(subquery.stars, subquery.star_indices):
            if composite_index in star_set:
                # OPTIONAL properties are never required of a match.
                required |= star.required_props() - plan.stars[composite_index].p_prim
        conditions.append(AlphaCondition(frozenset(required)))
    return conditions


# ---------------------------------------------------------------------------
# TG_AlphaJoin job
# ---------------------------------------------------------------------------


def _emit_tagged(
    side: JoinSide,
    tag: str,
    joined: JoinedTripleGroup,
    variable: Variable,
    ship_fixed: bool = True,
) -> Iterable[tuple[Term, tuple[str, JoinedTripleGroup]]]:
    """Tag *joined* for the α-join shuffle, one record per join-key value.

    With ``ship_fixed=False`` (the factorized representation) the join
    binding ``(variable, key)`` is *not* packed into the shuffled value:
    the shuffle key already carries it, and the reducer reattaches it via
    :func:`_with_fixed` before merging — same structure, fewer shuffled
    bytes, and the emitted records share one instance (and its size
    memo) across every key of an n-split fan-out.
    """
    keys = list(side.keys_for(joined))
    if obs._ACTIVE is not None and len(keys) > 1:
        # χ (n-split): one triplegroup fans out into one record per
        # distinct join-key value.
        obs.count("nsplit_split_groups")
        obs.count("nsplit_fanout", len(keys))
    for key in keys:
        if not ship_fixed:
            yield key, (tag, joined)
            continue
        fixed = joined.fixed
        if not any(v == variable for v, _ in fixed):
            fixed = fixed + ((variable, key),)
        yield key, (tag, JoinedTripleGroup(joined.components, fixed))


def _with_fixed(
    joined: JoinedTripleGroup, variable: Variable, key: Term
) -> JoinedTripleGroup:
    """Reattach the join binding dropped by ``ship_fixed=False``.

    Byte-identical in structure to the flat map-side append: the binding
    goes at the end of ``fixed`` iff *variable* is not already bound
    (an existing binding — even to a different value — is left alone,
    exactly as the mapper would have)."""
    if any(v == variable for v, _ in joined.fixed):
        return joined
    return JoinedTripleGroup(joined.components, joined.fixed + ((variable, key),))


def _expand_extras(
    merged: JoinedTripleGroup, extras: tuple[EdgeSides, ...]
) -> list[JoinedTripleGroup]:
    results = [merged]
    for edge in extras:
        next_results: list[JoinedTripleGroup] = []
        for joined in results:
            left_keys = set(edge.left_side.keys_for(joined))
            right_keys = set(edge.right_side.keys_for(joined))
            fixed_value = joined.fixed_bindings().get(edge.variable)
            candidates = left_keys & right_keys
            if fixed_value is not None:
                candidates &= {fixed_value}
            # Deterministic expansion order: set iteration is hash-seeded
            # and the order reaches materialized records (hence counters).
            for value in sorted(candidates, key=term_sort_key):
                fixed = dict(joined.fixed)
                fixed[edge.variable] = value
                next_results.append(
                    JoinedTripleGroup(joined.components, tuple(fixed.items()))
                )
        results = next_results
    return results


def build_alpha_join_job(
    name: str,
    step: JoinStep,
    plan: CompositePlan,
    store: TripleGroupStore,
    previous_output: str | None,
    joined_so_far: frozenset[int],
    output: str,
    prefilters: tuple = (),
    first_star: int = 0,
    representation: str = "flat",
) -> MapReduceJob:
    """One TG_AlphaJoin MR cycle.

    The map phase applies TG_OptGrpFilter to raw triplegroups (EC file
    records) for whichever stars this cycle introduces, and tags records
    by join side; the reduce phase performs the α-join.  Under
    ``representation="factorized"`` the star components flow as
    factorized columns and join bindings ride the shuffle key instead of
    the value (see :func:`_emit_tagged`).
    """
    new_star = step.new_star
    factorized = representation == "factorized"
    new_filter = make_star_filter(plan.stars[new_star], prefilters, representation)
    first_filter = make_star_filter(plan.stars[first_star], prefilters, representation)
    alphas = restricted_alphas(plan, joined_so_far | {new_star})
    left_side, right_side = step.primary.left_side, step.primary.right_side
    variable = step.primary.variable
    extras = step.extras

    is_first_step = previous_output is None
    inputs: list[str] = []
    if previous_output is not None:
        inputs.append(previous_output)
        inputs.extend(store.paths_for(plan.stars[new_star].p_prim))
    else:
        paths = set(store.paths_for(plan.stars[first_star].p_prim))
        paths |= set(store.paths_for(plan.stars[new_star].p_prim))
        inputs.extend(sorted(paths))
    # Deduplicate while preserving order.
    seen: set[str] = set()
    inputs = [p for p in inputs if not (p in seen or seen.add(p))]

    ship_fixed = not factorized

    def mapper(record: Any) -> Iterable[tuple[Term, tuple[str, JoinedTripleGroup]]]:
        if isinstance(record, JoinedTripleGroup):
            yield from _emit_tagged(left_side, "L", record, variable, ship_fixed)
            return
        if not isinstance(record, TripleGroup):
            return
        if is_first_step:
            filtered = first_filter(record)
            if filtered is not None:
                yield from _emit_tagged(
                    left_side,
                    "L",
                    JoinedTripleGroup.single(first_star, filtered),
                    variable,
                    ship_fixed,
                )
        filtered = new_filter(record)
        if filtered is not None:
            yield from _emit_tagged(
                right_side,
                "R",
                JoinedTripleGroup.single(new_star, filtered),
                variable,
                ship_fixed,
            )

    def reducer(key: Term, values: list) -> Iterable[JoinedTripleGroup]:
        lefts = [joined for tag, joined in values if tag == "L"]
        rights = [joined for tag, joined in values if tag == "R"]
        if factorized:
            # Reattach the join binding the mapper left on the shuffle
            # key (ship_fixed=False) before merging — restores exactly
            # the flat path's fixed tuples.
            lefts = [_with_fixed(joined, variable, key) for joined in lefts]
            rights = [_with_fixed(joined, variable, key) for joined in rights]
        tracing = obs._ACTIVE is not None
        for left in lefts:
            for right in rights:
                merged = left.merge(right)
                for expanded in _expand_extras(merged, extras):
                    if any_alpha_satisfied(alphas, expanded.props()):
                        if tracing:
                            obs.count("alpha_combinations_materialized")
                        yield expanded
                    elif tracing:
                        obs.count("alpha_combinations_pruned")

    return MapReduceJob(
        name=name,
        inputs=tuple(inputs),
        output=output,
        mapper=mapper,
        reducer=reducer,
        labels=("TG_OptGrpFilter", "TG_AlphaJoin"),
        representation=representation,
    )


# ---------------------------------------------------------------------------
# TG_AgJ job
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggRow:
    """An aggregated-triplegroup record on HDFS."""

    subquery_id: int
    row: tuple[tuple[Variable, Term], ...]

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self.row)

    def estimated_size(self) -> int:
        from repro.mapreduce import cost

        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_size")
            if cached is not None:
                return cached
        size = 4 + sum(cost.estimate_size(v) + cost.estimate_size(t) for v, t in self.row)
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size


# Shuffle value for TG_AgJ: one accumulator per aggregation (shared with
# the Hive engines — both model mapper-side hash partial aggregation).
from repro.sparql.aggregates import AccumulatorTuple  # noqa: E402  (placed here for reading order)


def _to_term(value: object) -> Term:
    if isinstance(value, (IRI, Literal)):
        return value
    return Literal.from_python(value)  # type: ignore[arg-type]


def build_agg_join_job(
    name: str,
    plan: CompositePlan,
    detail_input: str | None,
    store: TripleGroupStore,
    output: str,
    prefilters: tuple = (),
    representation: str = "flat",
) -> MapReduceJob:
    """The fused TG_AgJ cycle: every subquery's grouping-aggregation is
    computed in parallel over the composite detail (Figure 6(b)).

    When *detail_input* is None the pattern is a single star: the map
    phase applies TG_OptGrpFilter directly to EC-file records (emitting
    factorized components under ``representation="factorized"``); the
    aggregation itself consumes solutions, so it is representation-
    agnostic beyond the filter.
    """
    single_star_filter = (
        make_star_filter(plan.stars[0], prefilters, representation)
        if detail_input is None
        else None
    )
    if detail_input is None:
        inputs: tuple[str, ...] = store.paths_for(plan.stars[0].p_prim)
        if not inputs:
            raise PlanningError("no equivalence-class files match the star pattern")
    else:
        inputs = (detail_input,)

    # Everything a subquery fixes is compiled here, once per job; the
    # mapper below only runs it.
    subqueries = plan.subqueries
    compiled = tuple(
        (
            subquery.subquery_id,
            subquery.alpha.satisfied_by,
            JoinPlan(subquery.stars, subquery.star_indices).expand,
            subquery.filters,
            subquery.group_by,
            tuple(
                accumulator_factory(a.func, a.distinct) for a in subquery.aggregates
            ),
            tuple(a.variable for a in subquery.aggregates),
        )
        for subquery in subqueries
    )

    def mapper(record: Any) -> Iterable[tuple[tuple, AccumulatorTuple]]:
        if isinstance(record, TripleGroup):
            assert single_star_filter is not None
            filtered = single_star_filter(record)
            if filtered is None:
                return
            joined = JoinedTripleGroup.single(0, filtered)
        elif isinstance(record, JoinedTripleGroup):
            joined = record
        else:
            return
        props = joined.props()
        for subquery_id, alpha, expand, filters, group_by, factories, variables in compiled:
            if not alpha(props):
                # The paper's superfluous-combination pruning: this
                # detail record can contribute to no group of this
                # subquery, so TG_AgJ skips it before aggregation.
                if obs._ACTIVE is not None:
                    obs.count("alpha_combinations_pruned")
                continue
            for solution in expand(joined):
                if filters and not all(evaluate_filter(f, solution) for f in filters):
                    continue
                lookup = solution.get
                accumulators = [factory() for factory in factories]
                for accumulator, variable in zip(accumulators, variables):
                    if variable is None:
                        accumulator.update(None)
                        continue
                    term = lookup(variable)
                    if term is None:
                        continue
                    value = term_value(term)
                    accumulator.update(value.value if isinstance(value, IRI) else value)
                yield (
                    (subquery_id, tuple([lookup(v) for v in group_by])),
                    AccumulatorTuple(accumulators),
                )

    def combiner(key: tuple, values: list) -> Iterable[tuple[tuple, AccumulatorTuple]]:
        merged = values[0]
        for value in values[1:]:
            merged.merge(value)
        yield key, merged

    subquery_by_id = {sq.subquery_id: sq for sq in subqueries}

    def reducer(key: tuple, values: list) -> Iterable[AggRow]:
        if obs._ACTIVE is not None:
            obs.count("agg_join_groups")
        subquery_id, group_key = key
        subquery = subquery_by_id[subquery_id]
        # Merge into a copy: a reducer's inputs may be stored records (the
        # sharded driver's exchange files) that a re-run must find intact.
        merged = values[0].copy()
        for value in values[1:]:
            merged.merge(value)
        row: list[tuple[Variable, Term]] = []
        for variable, term in zip(subquery.output_group_by, group_key):
            if term is not None:
                row.append((variable, term))
        for accumulator, agg in zip(merged.accumulators, subquery.aggregates):
            result = accumulator.result()
            if result is UNBOUND:
                continue
            row.append((agg.alias, _to_term(result)))
        if subquery.having is not None and not evaluate_filter(
            subquery.having, dict(row)
        ):
            return
        yield AggRow(subquery_id, tuple(row))

    return MapReduceJob(
        name=name,
        inputs=inputs,
        output=output,
        mapper=mapper,
        combiner=combiner,
        reducer=reducer,
        labels=("TG_AgJ",),
        representation=representation,
    )


def empty_group_rows(plan: CompositePlan) -> list[AggRow]:
    """Rows SPARQL requires for GROUP-BY-ALL subqueries with no input.

    MapReduce produces nothing for an empty group; the final-join stage
    injects these default rows (COUNT=0, SUM=0) to preserve reference
    semantics for roll-up subqueries.
    """
    rows = []
    for subquery in plan.subqueries:
        if subquery.group_by:
            continue
        row: list[tuple[Variable, Term]] = []
        for agg in subquery.aggregates:
            accumulator = make_accumulator(agg.func, agg.distinct)
            result = accumulator.result()
            if result is UNBOUND:
                continue
            row.append((agg.alias, _to_term(result)))
        if subquery.having is not None and not evaluate_filter(
            subquery.having, dict(row)
        ):
            continue
        rows.append(AggRow(subquery.subquery_id, tuple(row)))
    return rows
