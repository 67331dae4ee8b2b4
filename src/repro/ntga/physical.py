"""Physical MapReduce operators for NTGA plans.

This module turns a :class:`repro.ntga.composite.CompositePlan` into
simulated MapReduce jobs:

* **TG_OptGrpFilter** runs map-side inside whichever job first touches a
  star's input (join or Agg-Join), as in the paper's Algorithm 1;
* **TG_AlphaJoin** is one full MR cycle per join edge of the composite
  pattern (Algorithm 2), pruning combinations that satisfy no α;
* **TG_AgJ** is one full MR cycle computing *all* requested
  grouping-aggregations in parallel (Algorithm 3), with mapper-side
  hash partial aggregation as the job's fold;
* **TG_Join** of aggregated triplegroups is a final map-only cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro import ambient, obs
from repro.core.query_model import PropKey, StarPattern, prop_key
from repro.errors import PlanningError
from repro.mapreduce import cost
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.ntga.composite import CanonicalSubquery, CompositePlan, CompositeStar, object_filters
from repro.ntga.factorized import FactorizedRelation, schema_for
from repro.ntga.operators import AlphaCondition, JoinSide
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    JoinPlan,
    TripleGroup,
    group_by_subject,
    subject_groups,
)
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Term, Variable, cache_slot, term_sort_key
from repro.rdf.triples import RDF_TYPE
from repro.sparql.aggregates import (
    UNBOUND,
    Accumulator,
    AccumulatorTuple,
    accumulator_factory,
    make_accumulator,
)
from repro.sparql.expressions import Expression, evaluate_filter, expression_variables


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


def _classified_groups(
    graph: Graph,
) -> list[tuple[frozenset, list[TripleGroup], int, int]]:
    """Subject triplegroups bucketed by equivalence class, in the
    deterministic storage order, with each bucket's raw byte size under
    the flat and factorized encodings.

    A graph memo entry over the graph's one subject grouping
    (:func:`~repro.ntga.triplegroup.subject_groups`), so every engine run
    over the graph shares the groups and their per-instance memos.  With
    the caches off it is rebuilt, grouping included, on every call."""
    if not cost.SIZE_CACHE_ENABLED:
        return _classify(group_by_subject(graph))
    return graph.derived(("ntga.classified",), lambda: _classify(subject_groups(graph)))


def _classify(
    groups: list[TripleGroup],
) -> list[tuple[frozenset, list[TripleGroup], int, int]]:
    by_class: dict[frozenset, list[TripleGroup]] = {}
    for group in groups:
        ec = frozenset(t.property for t in group.triples)
        by_class.setdefault(ec, []).append(group)
    return [
        (
            ec,
            by_class[ec],
            cost.estimate_total_size(by_class[ec]),
            sum(group.factorized_size() for group in by_class[ec]),
        )
        for ec in sorted(by_class, key=lambda s: sorted(i.value for i in s))
    ]


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
        # Projection and the per-triple checks only remove triples, so a
        # group without the primaries cannot gain them below -- and one
        # that has them keeps them unless a check drops a triple.
        dropped = not p_prim <= group.props()
        if not dropped:
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
                if len(kept) != len(projected.triples):
                    projected = TripleGroup(group.subject, tuple(kept))
                    dropped = not p_prim <= projected.props()
        if dropped:
            if ambient.tracer is not None:
                obs.count("sigma_dropped_triplegroups")
            return None
        if schema is None:
            return projected
        fact = FactorizedRelation.from_triplegroup(projected, schema)
        if ambient.tracer is not None:
            obs.count("factorized_relations")
            obs.count(
                "factorized_bytes_saved",
                projected.estimated_size() - fact.estimated_size(),
            )
        return fact

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
# What leaves a cycle (plan-time estimates)
# ---------------------------------------------------------------------------

#: Estimated serialized bytes of one shuffled ``(group key,
#: accumulator)`` pair of a TG_AgJ cycle.
AGG_PAIR_BYTES = 48
#: Estimated serialized bytes of one aggregated output row.
AGG_ROW_BYTES = 64


@dataclass(frozen=True, slots=True)
class CycleVolumes:
    """What a job builder states about its cycle before it runs
    (``MapReduceJob.leaving``): only what *leaves* the cycle.  What
    enters it is read off the job's ``inputs`` / ``side_inputs`` by
    whoever prices the job list (:func:`repro.plan.enumerator.price_jobs`),
    which also hands each builder the volumes of the job outputs it
    reads.  Floats: a downstream estimate is computed from these, and
    truncating in between would move it."""

    shuffle_bytes: float
    output_rows: float
    output_bytes: float
    #: Distinct reduce keys (caps the reduce tasks); 0 for a map-only cycle.
    distinct_keys: float = 0.0
    #: TG_AgJ only: ``{subquery id: its groups}`` -- what a result join
    #: reading this file joins.
    groups: dict[int, float] = field(default_factory=dict)


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
#
# Everything a ``JoinStep`` fixes -- which component slot and column
# carries each join key, which variables ``fixed`` already holds when a
# record reaches the step, which property keys any α can ask about -- is
# compiled into one :class:`AlphaJoinPlan` when the job is built.  Per
# record the mapper and reducer only index (docs/performance.md).


def _key_reader(
    side: JoinSide, slot: int, schema
) -> Callable[[tuple], Sequence[Term]]:
    """Compile *side* into ``components -> distinct join-key values``.

    *slot* is the position of the side's star in the record's
    ``components``; *schema* the star's factorized schema (``None`` for
    flat triplegroups).  Values keep column (= triple) order; the
    order-preserving dedup runs only when there is more than one.
    """
    if side.role == "subject":
        return lambda components: (components[slot][1].subject,)
    key = side.prop
    if schema is None:

        def read_flat(components: tuple) -> Sequence[Term]:
            values = components[slot][1].objects_for(key)
            return values if len(values) < 2 else tuple(dict.fromkeys(values))

        return read_flat
    column, only = schema.column_for(key)
    if column < 0:
        return lambda components: ()

    def read_column(components: tuple) -> Sequence[Term]:
        values = components[slot][1].columns[column]
        if only is not None:
            values = tuple(value for value in values if value == only)
        return values if len(values) < 2 else tuple(dict.fromkeys(values))

    return read_column


def _presence_mask(
    bits: dict[PropKey, int], slot: int, schema
) -> Callable[[tuple], int] | None:
    """Compile ``components -> bitmask of the α keys the component at
    *slot* holds`` (``None`` when it can hold none of them).

    A factorized component answers from its columns exactly as
    :meth:`FactorizedRelation.props` would: a key counts when its column
    is non-empty -- for a type-qualified key without a column of its own,
    when the plain ``rdf:type`` column lists its class -- and the plain
    ``rdf:type`` key never does (``props()`` qualifies it by class).
    """
    if schema is None:
        pairs = tuple(bits.items())

        def mask_flat(components: tuple) -> int:
            props = components[slot][1].props()
            mask = 0
            for key, bit in pairs:
                if key in props:
                    mask |= bit
            return mask

        return mask_flat
    checks = []
    for key, bit in bits.items():
        column, only = schema.column_for(key)
        if column >= 0 and key != prop_key(RDF_TYPE):
            checks.append((column, only, bit))
    if not checks:
        return None

    def mask_columns(components: tuple) -> int:
        columns = components[slot][1].columns
        mask = 0
        for column, only, bit in checks:
            values = columns[column]
            if values and (only is None or only in values):
                mask |= bit
        return mask

    return mask_columns


class AlphaJoinPlan:
    """One TG_AlphaJoin cycle compiled for execution (Algorithm 2).

    The left-deep order of :func:`derive_join_steps` fixes the layout of
    every record the cycle sees: a left record's ``components`` are the
    stars joined so far in step order, its ``fixed`` holds those steps'
    join variables in step order, and a right record wraps the one new
    star.  So each join side resolves, once, to a component *slot* and a
    key reader over it (:func:`_key_reader`); whether the join variable
    is already bound is a position in the ``fixed`` layout; and Def.
    3.5's "materialize only if some α holds" is
    ``(left mask | right mask) & required == required`` over int masks
    of the restricted α's key universe -- skipped altogether when some
    α requires nothing.  Under the size-cache switch the records built
    here get their size pinned from their parts' memoized sizes, and --
    on the cycle that completes the pattern, whose output TG_AgJ reads --
    their ``props()`` memo from the parts' memoized sets.

    A side naming a star the layout does not contain is a
    :class:`PlanningError` here, before any job runs.
    """

    __slots__ = ("variable", "ship_fixed", "layout", "sources", "left_keys", "bound_at",
                 "extras", "requirements", "left_masks", "right_mask", "completes")

    def __init__(
        self,
        step: JoinStep,
        plan: CompositePlan,
        joined_so_far: frozenset[int],
        prefilters: tuple,
        first_star: int,
        representation: str,
        is_first_step: bool,
    ):
        factorized = representation == "factorized"
        new_star = step.new_star
        self.variable = variable = step.primary.variable
        #: Flat records carry the join binding in the shuffled value; a
        #: factorized record leaves it on the shuffle key (fewer shuffled
        #: bytes, one shared instance per n-split fan-out) and the
        #: reducer reattaches it.
        self.ship_fixed = not factorized

        # The layout of a left record: component slots and fixed variables.
        earlier = (
            []
            if is_first_step
            else [s for s in derive_join_steps(plan) if s.new_star in joined_so_far]
        )
        #: The stars a left record's ``components`` hold, in slot order.
        self.layout = layout = [first_star] + [s.new_star for s in earlier]
        fixed_layout: list[Variable] = []
        for edge in (e for s in earlier for e in (s.primary, *s.extras)):
            if edge.variable not in fixed_layout:
                fixed_layout.append(edge.variable)

        def schema_of(star_index: int):
            return schema_for(plan.stars[star_index].all_props()) if factorized else None

        def reader(side: JoinSide, stars: list[int], which: str):
            if side.star_index not in stars:
                raise PlanningError(
                    f"join step attaching star {new_star}: the {which} side of "
                    f"{variable} names star {side.star_index}, which is not among "
                    f"the components {stars} it reads"
                )
            return _key_reader(side, stars.index(side.star_index), schema_of(side.star_index))

        self.left_keys = reader(step.primary.left_side, layout, "left")
        #: What a stored triplegroup can become here: ``(tag, star, its
        #: σ^γopt, key reader over the one-star wrapper)`` -- the new star,
        #: and in the first cycle the first star too.
        self.sources = [
            (
                "R",
                new_star,
                make_star_filter(plan.stars[new_star], prefilters, representation),
                reader(step.primary.right_side, [new_star], "right"),
            )
        ]
        if is_first_step:
            first = make_star_filter(plan.stars[first_star], prefilters, representation)
            self.sources.insert(0, ("L", first_star, first, self.left_keys))
        #: Where a left record's ``fixed`` already binds the join
        #: variable (``-1``: it does not; right records never do).
        self.bound_at = fixed_layout.index(variable) if variable in fixed_layout else -1

        # Extra edges attaching the same star are checked on the merged
        # record: (left reader, right reader, variable, its position in
        # ``fixed`` at that point or -1 when the edge appends it).
        merged_layout = layout + [new_star]
        if self.bound_at < 0:
            fixed_layout.append(variable)
        extras = []
        for edge in step.extras:
            bound = edge.variable in fixed_layout
            extras.append(
                (
                    reader(edge.left_side, merged_layout, "extra left"),
                    reader(edge.right_side, merged_layout, "extra right"),
                    edge.variable,
                    fixed_layout.index(edge.variable) if bound else -1,
                )
            )
            if not bound:
                fixed_layout.append(edge.variable)
        self.extras = tuple(extras)

        #: Whether this cycle's output is the composite detail TG_AgJ reads
        #: (every star joined): its mapper asks each record for ``props()``.
        self.completes = len(joined_so_far | {new_star}) == len(plan.stars)

        # α as bitmasks over the keys the restricted conditions mention.
        alphas = restricted_alphas(plan, joined_so_far | {new_star})
        if not alphas or any(not alpha.required for alpha in alphas):
            self.requirements = None  # every combination materializes
            self.left_masks, self.right_mask = (), None
        else:
            bits: dict[PropKey, int] = {}
            for alpha in alphas:
                for key in alpha.required:
                    bits.setdefault(key, 1 << len(bits))
            self.requirements = tuple(
                dict.fromkeys(sum(bits[key] for key in alpha.required) for alpha in alphas)
            )
            masks = (
                _presence_mask(bits, slot, schema_of(star)) for slot, star in enumerate(layout)
            )
            self.left_masks = tuple(mask for mask in masks if mask is not None)
            self.right_mask = _presence_mask(bits, 0, schema_of(new_star))

    # -- map ---------------------------------------------------------------

    def _tagged(
        self,
        tag: str,
        keys: Sequence[Term],
        components: tuple,
        fixed: tuple,
        stored: JoinedTripleGroup | None,
        size: int = 0,
    ) -> list[tuple[Term, tuple[str, JoinedTripleGroup]]]:
        """One shuffle pair per join-key value for the record
        ``(components, fixed)``: *stored* itself when it is a previous
        cycle's output, else a star wrapper of *size* bytes built here."""
        if len(keys) > 1 and ambient.tracer is not None:
            # χ (n-split): one triplegroup fans out into one record per
            # distinct join-key value.
            obs.count("nsplit_split_groups")
            obs.count("nsplit_fanout", len(keys))
        pin = cost.SIZE_CACHE_ENABLED
        if self.ship_fixed and (stored is None or self.bound_at < 0):
            # Flat: each key's record carries its own join binding.
            variable = self.variable
            if pin and stored is not None:
                size = stored.estimated_size()
            pairs = []
            for key in keys:
                joined = JoinedTripleGroup(components, fixed + ((variable, key),))
                if pin:
                    object.__setattr__(joined, "_size", size + cost.estimate_size(key))
                pairs.append((key, (tag, joined)))
            return pairs
        # The binding rides the shuffle key (or is already in ``fixed``):
        # every key shares one instance, and its size memo.
        if stored is None:
            stored = JoinedTripleGroup(components, fixed)
            if pin:
                object.__setattr__(stored, "_size", size)
        value = (tag, stored)
        if len(keys) == 1:
            return [(keys[0], value)]
        return [(key, value) for key in keys]

    def mapper(self, record: Any) -> Sequence[tuple[Term, tuple[str, JoinedTripleGroup]]]:
        cls = record.__class__
        if cls is JoinedTripleGroup:  # a previous cycle's output: the left side
            components = record.components
            return self._tagged("L", self.left_keys(components), components, record.fixed, record)
        if cls is not TripleGroup:
            return ()
        pairs = []
        for tag, star, star_filter, keys_of in self.sources:
            filtered = star_filter(record)
            if filtered is not None:
                components = ((star, filtered),)
                pairs += self._tagged(
                    tag, keys_of(components), components, (), None, filtered.estimated_size() + 8
                )
        return pairs

    # -- reduce ------------------------------------------------------------

    def _extra_fixed(self, components: tuple, fixed: tuple) -> list[tuple]:
        """Every ``fixed`` the extra edges allow for one merged record:
        an edge keeps a binding both of its sides offer, or appends one
        per value they share."""
        results = [fixed]
        for left_keys, right_keys, variable, position in self.extras:
            shared = set(left_keys(components)) & set(right_keys(components))
            if position >= 0:
                results = [current for current in results if current[position][1] in shared]
            else:
                # Sorted: set iteration is hash-seeded and the order
                # reaches materialized records (hence counters).
                ordered = sorted(shared, key=term_sort_key)
                results = [
                    current + ((variable, value),) for current in results for value in ordered
                ]
        return results

    def reducer(self, key: Term, values: list) -> Sequence[JoinedTripleGroup]:
        lefts = [joined for tag, joined in values if tag == "L"]
        if not lefts or len(lefts) == len(values):
            return ()
        binding = (self.variable, key)
        bound_at, ship_fixed, extras = self.bound_at, self.ship_fixed, self.extras
        requirements, right_mask = self.requirements, self.right_mask
        # Sizes are pinned where they are plain arithmetic -- one new
        # binding, no extra edges: the merged record is the left one, the
        # right one's component (a right record is that plus 8 and, when
        # shipped flat, the binding) and the binding if the key carried it.
        pin = cost.SIZE_CACHE_ENABLED and not extras and bound_at < 0
        if pin:
            key_size = cost.estimate_size(key)
            carried = -8 - key_size if ship_fixed else key_size - 8
        # The detail TG_AgJ reads gets its ``props()`` memo here, as the
        # union of the parts' memoized sets.
        pin_props = cost.SIZE_CACHE_ENABLED and self.completes
        rights = [
            (
                joined.components,
                joined.estimated_size() + carried if pin else 0,
                right_mask(joined.components) if right_mask is not None else 0,
                joined.components[0][1].props() if pin_props else None,
            )
            for tag, joined in values
            if tag == "R"
        ]
        tracing = ambient.tracer is not None
        pruned = 0
        output: list[JoinedTripleGroup] = []
        for left in lefts:
            # The merged ``fixed`` is the left one's with the join variable
            # bound to this key: built once per left record.
            fixed = left.fixed
            if bound_at >= 0:
                if fixed[bound_at][1] != key:
                    fixed = fixed[:bound_at] + (binding,) + fixed[bound_at + 1 :]
            elif not ship_fixed:
                fixed = fixed + (binding,)
            components = left.components
            left_size = left.estimated_size() if pin else 0
            if pin_props:
                left_props = frozenset().union(*[group.props() for _, group in components])
            left_bits = 0
            if requirements is not None:
                for mask in self.left_masks:
                    left_bits |= mask(components)
            for right_components, right_size, right_bits, right_props in rights:
                merged = components + right_components
                if requirements is not None:
                    present = left_bits | right_bits
                    for required in requirements:
                        if present & required == required:
                            break
                    else:
                        if tracing:
                            pruned += len(self._extra_fixed(merged, fixed)) if extras else 1
                        continue
                for variant in self._extra_fixed(merged, fixed) if extras else (fixed,):
                    joined = JoinedTripleGroup(merged, variant)
                    if pin:
                        object.__setattr__(joined, "_size", left_size + right_size)
                    if pin_props:
                        object.__setattr__(joined, "_props", left_props | right_props)
                    output.append(joined)
        if tracing:
            if output:
                obs.count("alpha_combinations_materialized", len(output))
            if pruned:
                obs.count("alpha_combinations_pruned", pruned)
        return output


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
    the value.  Both phases run one :class:`AlphaJoinPlan`, compiled
    here.
    """
    new_star = step.new_star
    compiled = AlphaJoinPlan(
        step,
        plan,
        joined_so_far,
        prefilters,
        first_star,
        representation,
        is_first_step=previous_output is None,
    )

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

    def leaving(estimator: Any, upstream: dict[str, CycleVolumes], map_tasks: int) -> CycleVolumes:
        stars = estimator.star_estimates(plan)
        new = stars[new_star]
        previous = upstream.get(previous_output)
        if previous is None:  # the first cycle filters the first star itself
            left_rows = stars[first_star].groups
            left_bytes = stars[first_star].filtered_bytes
        else:
            left_rows, left_bytes = previous.output_rows, previous.output_bytes
        left_distinct = estimator.side_distinct(step.primary.left_side, stars, left_rows)
        right_distinct = estimator.side_distinct(step.primary.right_side, stars, new.groups)
        rows = estimator.join_rows(left_rows, new.groups, left_distinct, right_distinct)
        # A joined record is one group of every star joined so far.
        row_bytes = 0.0
        for star in (*compiled.layout, new_star):
            row_bytes += stars[star].bytes_per_group
        return CycleVolumes(
            shuffle_bytes=left_bytes + new.filtered_bytes,
            output_rows=rows,
            output_bytes=rows * row_bytes,
            distinct_keys=max(left_distinct, right_distinct),
        )

    return MapReduceJob(
        name=name,
        inputs=tuple(inputs),
        output=output,
        mapper=compiled.mapper,
        reducer=compiled.reducer,
        labels=("TG_OptGrpFilter", "TG_AlphaJoin"),
        representation=representation,
        leaving=leaving,
    )


# ---------------------------------------------------------------------------
# TG_AgJ job
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AggRow:
    """An aggregated-triplegroup record on HDFS."""

    subquery_id: int
    row: tuple[tuple[Variable, Term], ...]
    _size: int | None = cache_slot()

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self.row)

    def estimated_size(self) -> int:
        if cost.SIZE_CACHE_ENABLED:
            cached = self._size
            if cached is not None:
                return cached
        size = 4 + sum(cost.estimate_size(v) + cost.estimate_size(t) for v, t in self.row)
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size


def to_term(value: object) -> Term:
    """An aggregate's or expression's python result as an RDF term."""
    if isinstance(value, (IRI, Literal)):
        return value
    return Literal.from_python(value)  # type: ignore[arg-type]


def finish_group(
    subquery_id: int,
    group_vars: tuple[Variable, ...],
    group_key: tuple,
    accumulators: Iterable[Accumulator],
    aggregates: tuple,
    having: Expression | None,
) -> AggRow | None:
    """One finished group as an :class:`AggRow`: its bound group
    variables, then each aggregate's result under its alias (an unbound
    result leaves the alias out); None when HAVING rejects the group."""
    row = [
        (variable, term)
        for variable, term in zip(group_vars, group_key)
        if term is not None
    ]
    for accumulator, agg in zip(accumulators, aggregates):
        result = accumulator.result()
        if result is not UNBOUND:
            row.append((agg.alias, to_term(result)))
    if having is not None and not evaluate_filter(having, dict(row)):
        return None
    return AggRow(subquery_id, tuple(row))


def _expand_once(expansion: JoinPlan) -> Callable[[JoinedTripleGroup], list[list]]:
    """*expansion*'s ``expand``, remembering the last record it was
    asked about: the subqueries sharing a layout ask in turn about the
    same record, and the first one expands it."""
    last: list = [None, None]

    def expand(joined: JoinedTripleGroup) -> list[list]:
        if last[0] is not joined:
            last[0], last[1] = joined, expansion.expand(joined)
        return last[1]

    return expand


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

    # Everything a subquery fixes is compiled here, once per job -- its
    # variables as positions in the rows its plan expands to; the mapper
    # below only runs it.  Subqueries over one star layout share one
    # plan, and a record is expanded once for all of them (a batch often
    # groups one pattern several ways): their rows are only ever read.
    subqueries = plan.subqueries
    expansions: dict[tuple, tuple[JoinPlan, Callable]] = {}
    for subquery in subqueries:
        layout = (subquery.stars, subquery.star_indices)
        if layout not in expansions:
            expansion = JoinPlan(*layout)
            expansions[layout] = (expansion, _expand_once(expansion))

    def compile_subquery(subquery: CanonicalSubquery) -> tuple:
        expansion, expand = expansions[subquery.stars, subquery.star_indices]
        # Sorted: slot numbering must not depend on set iteration order.
        mentioned = sorted(
            {v for expression in subquery.filters for v in expression_variables(expression)},
            key=lambda variable: variable.name,
        )
        return (
            subquery.subquery_id,
            subquery.alpha.satisfied_by,
            expand,
            subquery.filters,
            tuple((variable, expansion.slot(variable)) for variable in mentioned),
            tuple(expansion.slot(variable) for variable in subquery.group_by),
            # What the fold reads of an emitted solution: the aggregates'
            # factories and input slots (-1: COUNT(*) reads no variable).
            (
                tuple(accumulator_factory(a.func, a.distinct) for a in subquery.aggregates),
                tuple(
                    -1 if a.variable is None else expansion.slot(a.variable)
                    for a in subquery.aggregates
                ),
            ),
        )

    compiled = tuple(compile_subquery(subquery) for subquery in subqueries)

    def mapper(record: Any) -> Iterable[tuple[tuple, tuple]]:
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
        for (
            subquery_id, alpha, expand, filters, filter_slots, group_slots, aggregation
        ) in compiled:
            if not alpha(props):
                # The paper's superfluous-combination pruning: this
                # detail record can contribute to no group of this
                # subquery, so TG_AgJ skips it before aggregation.
                if ambient.tracer is not None:
                    obs.count("alpha_combinations_pruned")
                continue
            for row in expand(joined):
                if filters:
                    # A residual filter sees the variables it mentions.
                    bindings = {
                        variable: row[slot]
                        for variable, slot in filter_slots
                        if row[slot] is not None
                    }
                    if not all(evaluate_filter(f, bindings) for f in filters):
                        continue
                yield (subquery_id, tuple([row[slot] for slot in group_slots])), (aggregation, row)

    # Mapper-side hash aggregation (Algorithm 3's multiAggMap): a map
    # task keeps one accumulator tuple per group and feeds it each of
    # the group's solutions in place.
    def zero(item: tuple) -> AccumulatorTuple:
        factories, _ = item[0]
        return AccumulatorTuple([factory() for factory in factories])

    def step(partial: AccumulatorTuple, item: tuple) -> None:
        (_, input_slots), row = item
        for accumulator, slot in zip(partial.accumulators, input_slots):
            if slot < 0:
                accumulator.update(None)
                continue
            # An aggregate reads a term's value (``term_value``), an IRI's text.
            term = row[slot]
            if term.__class__ is Literal:
                accumulator.update(term.python_value())
            elif term is not None:
                accumulator.update(term.value if term.__class__ is IRI else term)

    subquery_by_id = {sq.subquery_id: sq for sq in subqueries}

    def reducer(key: tuple, values: list) -> Iterable[AggRow]:
        if ambient.tracer is not None:
            obs.count("agg_join_groups")
        subquery_id, group_key = key
        subquery = subquery_by_id[subquery_id]
        row = finish_group(
            subquery_id,
            subquery.output_group_by,
            group_key,
            AccumulatorTuple.merged(values).accumulators,
            subquery.aggregates,
            subquery.having,
        )
        if row is not None:
            yield row

    def leaving(estimator: Any, upstream: dict[str, CycleVolumes], map_tasks: int) -> CycleVolumes:
        stars = estimator.star_estimates(plan)
        detail = upstream.get(detail_input)
        detail_rows = stars[0].groups if detail is None else detail.output_rows
        expansion = 1.0
        for star in stars:
            expansion *= max(1.0, star.expansion)
        solutions = detail_rows * expansion
        groups = {
            subquery.subquery_id: estimator.group_count(subquery, solutions, stars)
            for subquery in subqueries
        }
        total_groups = cost.fold_seconds(groups.values())
        # Mapper-side hash partial aggregation (the fold): at most one
        # shuffled pair per (group, map task).
        shuffle_rows = min(solutions * len(subqueries), total_groups * map_tasks)
        return CycleVolumes(
            shuffle_bytes=shuffle_rows * AGG_PAIR_BYTES,
            output_rows=total_groups,
            output_bytes=total_groups * AGG_ROW_BYTES,
            distinct_keys=total_groups,
            groups=groups,
        )

    return MapReduceJob(
        name=name,
        inputs=inputs,
        output=output,
        mapper=mapper,
        fold=(zero, step),
        reducer=reducer,
        labels=("TG_AgJ",),
        representation=representation,
        leaving=leaving,
    )


def empty_group_rows(plan: CompositePlan) -> list[AggRow]:
    """Rows SPARQL requires for GROUP-BY-ALL subqueries with no input.

    MapReduce produces nothing for an empty group; the final-join stage
    injects these default rows (COUNT=0, SUM=0) to preserve reference
    semantics for roll-up subqueries.
    """
    rows = (
        finish_group(
            subquery.subquery_id,
            (),
            (),
            [make_accumulator(agg.func, agg.distinct) for agg in subquery.aggregates],
            subquery.aggregates,
            subquery.having,
        )
        for subquery in plan.subqueries
        if not subquery.group_by
    )
    return [row for row in rows if row is not None]
