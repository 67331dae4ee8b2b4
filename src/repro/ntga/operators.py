"""NTGA logical operators (paper Definitions 3.3 - 3.6).

These are pure, in-memory operators over triplegroup collections.  The
MapReduce physical operators in :mod:`repro.ntga.physical` are built
from them; keeping the logical layer separate makes the definitions
directly testable against the paper's figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.query_model import AggregateSpec, PropKey, StarPattern, prop_key
from repro.errors import PlanningError
from repro.ntga.triplegroup import JoinedTripleGroup, JoinPlan, TripleGroup
from repro.rdf.terms import IRI, Term, Variable
from repro.sparql.aggregates import UNBOUND, make_accumulator
from repro.sparql.expressions import term_value


# ---------------------------------------------------------------------------
# α conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaCondition:
    """A condition on secondary-property presence (Def 3.5 / Table 2).

    ``required`` keys must be present (``p != ∅``) and ``absent`` keys
    must be missing (``p = ∅``).  The planner derives presence-only
    conditions — one per original graph pattern, requiring that
    pattern's secondary properties — which is what SPARQL multiset
    semantics needs; absence constraints are supported for completeness
    and for reproducing Table 2's exact-combination examples.
    """

    required: frozenset[PropKey] = frozenset()
    absent: frozenset[PropKey] = frozenset()

    def satisfied_by(self, props: frozenset[PropKey]) -> bool:
        return self.required <= props and not (self.absent & props)

    def describe(self) -> str:
        parts = [f"{key} != ∅" for key in sorted(self.required, key=str)]
        parts += [f"{key} = ∅" for key in sorted(self.absent, key=str)]
        return " ∧ ".join(parts) if parts else "true"


def any_alpha_satisfied(
    conditions: Sequence[AlphaCondition], props: frozenset[PropKey]
) -> bool:
    """Disjunction of α conditions — the join materialization test."""
    if not conditions:
        return True
    return any(condition.satisfied_by(props) for condition in conditions)


# ---------------------------------------------------------------------------
# Def 3.3: optional group filter
# ---------------------------------------------------------------------------


def optional_group_filter(
    groups: Iterable[TripleGroup],
    p_prim: frozenset[PropKey],
    p_opt: frozenset[PropKey],
    constraints: dict[PropKey, Term] | None = None,
) -> list[TripleGroup]:
    """``σ^γopt``: keep triplegroups containing every primary property and
    any subset of the optional ones.

    Triples outside ``p_prim ∪ p_opt`` are projected away first (the
    physical operator works on equivalence-class files that may carry
    extra properties).  *constraints* are concrete-object restrictions
    (e.g. ``pub_type "News"``): a triplegroup qualifies only if, for the
    constrained property, a triple with that exact object exists; other
    objects of that property are dropped.
    """
    constraints = constraints or {}
    relevant = p_prim | p_opt
    output: list[TripleGroup] = []
    for group in groups:
        projected = group.project(relevant)
        if constraints:
            kept = []
            for triple in projected.triples:
                key = prop_key(triple.property)
                required = constraints.get(key)
                if required is not None and triple.object != required:
                    continue
                kept.append(triple)
            projected = TripleGroup(group.subject, tuple(kept))
        if p_prim <= projected.props():
            output.append(projected)
    return output


# ---------------------------------------------------------------------------
# Def 3.4: n-split
# ---------------------------------------------------------------------------


def n_split(
    groups: Iterable[TripleGroup],
    p_prim: frozenset[PropKey],
    secondary_sets: Sequence[frozenset[PropKey]],
) -> list[list[TripleGroup]]:
    """``χ``: extract the *n* original-star projections of composite
    triplegroups.

    Output ``i`` contains, for every input triplegroup whose property
    set includes all of ``secondary_sets[i]``, the subset of its triples
    matching ``p_prim ∪ secondary_sets[i]`` (Figure 4(b)/(c)).
    """
    outputs: list[list[TripleGroup]] = [[] for _ in secondary_sets]
    for group in groups:
        props = group.props()
        if not p_prim <= props:
            continue
        for index, secondary in enumerate(secondary_sets):
            if secondary <= props:
                outputs[index].append(group.project(p_prim | secondary))
    return outputs


# ---------------------------------------------------------------------------
# Def 3.5: α-join
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinSide:
    """How one side of a triplegroup join produces its key.

    ``role`` is ``"subject"`` (key = the triplegroup subject) or
    ``"object"`` (keys = object values of ``prop`` — one join candidate
    per value, which fixes the join variable's binding).  ``star_index``
    selects the component of a joined triplegroup that carries the key.
    """

    role: str
    prop: PropKey | None = None
    star_index: int = 0

    def __post_init__(self) -> None:
        if self.role not in ("subject", "object"):
            raise PlanningError(f"invalid join role {self.role!r}")
        if self.role == "object" and self.prop is None:
            raise PlanningError("object-role join side needs a property")

    def keys_for(self, joined: JoinedTripleGroup) -> list[Term]:
        group = joined.component(self.star_index)
        if group is None:
            return []
        if self.role == "subject":
            return [group.subject]
        assert self.prop is not None
        return list(dict.fromkeys(group.objects_for(self.prop)))


def alpha_join(
    left: Iterable[JoinedTripleGroup],
    right: Iterable[JoinedTripleGroup],
    left_side: JoinSide,
    right_side: JoinSide,
    join_variable: Variable,
    alphas: Sequence[AlphaCondition] = (),
) -> list[JoinedTripleGroup]:
    """``⋈^γ_α``: join two triplegroup collections, materializing only
    combinations that satisfy at least one α condition.

    The join variable's chosen value is recorded in the output's fixed
    bindings so later expansion respects the pairing.
    """
    index: dict[Term, list[JoinedTripleGroup]] = defaultdict(list)
    for joined in right:
        for key in right_side.keys_for(joined):
            index[key].append(joined)
    output: list[JoinedTripleGroup] = []
    for joined in left:
        for key in left_side.keys_for(joined):
            for match in index.get(key, ()):
                combined = joined.merge(match, ((join_variable, key),))
                if any_alpha_satisfied(alphas, combined.props()):
                    output.append(combined)
    return output


# ---------------------------------------------------------------------------
# Def 3.6: TG Agg-Join
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggJoinSpec:
    """One decoupled grouping-aggregation over the composite detail.

    ``stars`` are the original graph pattern's star patterns expressed
    in composite (canonical) variables; ``star_indices`` maps them to
    component positions of the joined detail triplegroups.  ``theta`` is
    the grouping key (canonical variables), ``alpha`` the secondary-
    property condition selecting detail triplegroups that match this
    original pattern, and ``output_group_by`` the variable names the
    subquery's result rows use for the grouping key.
    """

    subquery_id: int
    stars: tuple[StarPattern, ...]
    star_indices: tuple[int, ...]
    theta: tuple[Variable, ...]
    aggregates: tuple[AggregateSpec, ...]
    alpha: AlphaCondition = field(default_factory=AlphaCondition)
    output_group_by: tuple[Variable, ...] = ()


@dataclass(frozen=True)
class AggregatedTripleGroup:
    """The operator's output form (Def 3.6): one group per base key.

    ``triples``-like payload is modeled as a mapping from the generated
    property name ``createProp(f, a)`` to the aggregate value; ``key``
    is the grouping key (the paper's grpKey / base subject).
    """

    spec_id: int
    key: tuple[Term | None, ...]
    values: dict[str, object]

    def estimated_size(self) -> int:
        from repro.mapreduce.cost import estimate_size

        return estimate_size(self.key) + estimate_size(self.values) + 8


def create_prop(func: str, variable: Variable | None) -> str:
    """``createProp(f_k, a_k)``: a unique property name per aggregation."""
    return f"{func.lower()}_{variable.name if variable is not None else 'star'}"


def _spec_expansions(
    spec: AggJoinSpec, details: Iterable[JoinedTripleGroup]
) -> Iterator[tuple[JoinedTripleGroup, list[dict[Variable, Term]]]]:
    """Each detail triplegroup satisfying the spec's α, with its
    solutions.  The pattern is compiled once per call, not per detail."""
    solutions = JoinPlan(spec.stars, spec.star_indices).solutions
    for detail in details:
        if spec.alpha.satisfied_by(detail.props()):
            yield detail, solutions(detail)


def rng(
    base_key: tuple[Term | None, ...],
    details: Iterable[JoinedTripleGroup],
    spec: AggJoinSpec,
) -> list[JoinedTripleGroup]:
    """``RNG(btg, TG_detail, θ, α)``: detail triplegroups contributing to
    one base key (Def 3.6)."""
    matching: list[JoinedTripleGroup] = []
    for detail, solutions in _spec_expansions(spec, details):
        for solution in solutions:
            key = tuple(solution.get(variable) for variable in spec.theta)
            if key == base_key:
                matching.append(detail)
                break
    return matching


def agg_join(
    details: Iterable[JoinedTripleGroup],
    spec: AggJoinSpec,
    base_keys: Iterable[tuple[Term | None, ...]] | None = None,
) -> list[AggregatedTripleGroup]:
    """``γ^AgJ``: grouping-aggregation over the composite detail class.

    When *base_keys* is given (the MD-Join form with an explicit base
    relation), every base key yields an output even if no detail matches
    — the paper's "agtg₃ retains default values" case.  Otherwise the
    base is derived from the detail (SPARQL GROUP BY semantics).
    """
    accumulators: dict[tuple, dict[str, object]] = {}
    state: dict[tuple, list] = {}
    for _, solutions in _spec_expansions(spec, details):
        for solution in solutions:
            key = tuple(solution.get(variable) for variable in spec.theta)
            if key not in state:
                state[key] = [
                    make_accumulator(agg.func, agg.distinct) for agg in spec.aggregates
                ]
            for accumulator, agg in zip(state[key], spec.aggregates):
                if agg.variable is None:
                    accumulator.update(None)
                    continue
                term = solution.get(agg.variable)
                if term is None:
                    continue
                value = term_value(term)
                accumulator.update(value.value if isinstance(value, IRI) else value)

    keys = list(state)
    if base_keys is not None:
        seen = set(keys)
        for key in base_keys:
            if key not in seen:
                seen.add(key)
                state[key] = [
                    make_accumulator(agg.func, agg.distinct) for agg in spec.aggregates
                ]
        keys = list(state)
    elif not keys and not spec.theta:
        # GROUP BY ALL over an empty detail: SPARQL still yields one row.
        state[()] = [make_accumulator(agg.func, agg.distinct) for agg in spec.aggregates]
        keys = [()]

    output: list[AggregatedTripleGroup] = []
    for key in keys:
        values: dict[str, object] = {}
        for accumulator, agg in zip(state[key], spec.aggregates):
            result = accumulator.result()
            if result is UNBOUND:
                continue
            values[create_prop(agg.func, agg.variable)] = result
        output.append(AggregatedTripleGroup(spec.subquery_id, key, values))
    return output
