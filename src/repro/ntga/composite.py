"""Composite graph pattern construction (paper Section 3).

Given two overlapping graph patterns, the composite pattern merges each
matched star pair into a composite star with *primary* (shared) and
*secondary* (pattern-specific) properties.  GP2's variables are
canonicalized onto GP1's so a single evaluation serves both patterns;
each original pattern keeps a canonical form (for binding expansion)
plus an α condition (its secondary properties must be present).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.query_model import (
    AggregateSpec,
    GraphPattern,
    GroupingSubquery,
    PropKey,
    StarPattern,
    prop_key_of,
)
from repro.errors import OverlapError
from repro.ntga.operators import AlphaCondition
from repro.ntga.overlap import StarCorrespondence, find_correspondence
from repro.rdf.terms import Term, Variable, cache_slot
from repro.rdf.triples import TriplePattern
from repro.sparql.expressions import (
    BinaryExpr,
    Expression,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    expression_variables,
)


def rename_expression(expression: Expression, rename: dict[Variable, Variable]) -> Expression:
    if isinstance(expression, VarExpr):
        return VarExpr(rename.get(expression.variable, expression.variable))
    if isinstance(expression, UnaryExpr):
        return UnaryExpr(expression.op, rename_expression(expression.operand, rename))
    if isinstance(expression, BinaryExpr):
        return BinaryExpr(
            expression.op,
            rename_expression(expression.left, rename),
            rename_expression(expression.right, rename),
        )
    if isinstance(expression, FunctionExpr):
        return FunctionExpr(
            expression.name,
            tuple(rename_expression(argument, rename) for argument in expression.args),
        )
    return expression


def rename_pattern(pattern: TriplePattern, rename: dict[Variable, Variable]) -> TriplePattern:
    def resolve(component):
        if isinstance(component, Variable):
            return rename.get(component, component)
        return component

    return TriplePattern(
        resolve(pattern.subject), resolve(pattern.property), resolve(pattern.object)
    )


def rename_star(star: StarPattern, rename: dict[Variable, Variable]) -> StarPattern:
    subject = star.subject
    if isinstance(subject, Variable):
        subject = rename.get(subject, subject)
    return StarPattern(
        subject,
        tuple(rename_pattern(p, rename) for p in star.patterns),
        star.optional_props,  # property keys are rename-invariant
    )


@dataclass(frozen=True)
class CompositeStar:
    """One merged star of the composite graph pattern."""

    pattern: StarPattern
    p_prim: frozenset[PropKey]
    p_sec: frozenset[PropKey]
    #: Concrete-object constraints (literal/IRI objects of non-type
    #: patterns); non-matching triples of these properties are dropped
    #: during the optional group filter.
    constraints: dict[PropKey, Term] = field(default_factory=dict, hash=False)

    def all_props(self) -> frozenset[PropKey]:
        return self.p_prim | self.p_sec


@dataclass(frozen=True)
class CanonicalSubquery:
    """An original grouping subquery expressed in composite variables."""

    subquery_id: int
    stars: tuple[StarPattern, ...]
    star_indices: tuple[int, ...]
    group_by: tuple[Variable, ...]  # canonical variables
    output_group_by: tuple[Variable, ...]  # the subquery's own names
    aggregates: tuple[AggregateSpec, ...]  # canonical variables, original aliases
    alpha: AlphaCondition = field(default_factory=AlphaCondition)
    filters: tuple[Expression, ...] = ()
    #: HAVING over the *output* names (group keys keep their original
    #: names in result rows, aliases are never renamed), so no
    #: canonicalization is needed.
    having: Expression | None = None


@dataclass(frozen=True, slots=True)
class CompositePlan:
    """The full rewrite: composite stars plus per-pattern extraction info."""

    stars: tuple[CompositeStar, ...]
    subqueries: tuple[CanonicalSubquery, ...]
    #: The composite graph pattern, built with the plan: the join edges
    #: and connectivity it pins are derived once per plan.
    _pattern: GraphPattern | None = cache_slot()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pattern", GraphPattern(tuple(s.pattern for s in self.stars)))

    def composite_graph_pattern(self) -> GraphPattern:
        return self._pattern

    def alphas(self) -> tuple[AlphaCondition, ...]:
        return tuple(sq.alpha for sq in self.subqueries)

    def describe(self) -> str:
        lines = []
        for index, composite_star in enumerate(self.stars):
            prim = ",".join(sorted(str(k) for k in composite_star.p_prim))
            sec = ",".join(sorted(str(k) for k in composite_star.p_sec))
            lines.append(f"Stp'{index}: prim={{{prim}}} sec={{{sec}}}")
        for subquery in self.subqueries:
            lines.append(f"alpha_{subquery.subquery_id}: {subquery.alpha.describe()}")
        return "\n".join(lines)


def _concrete_constraints(star: StarPattern) -> dict[PropKey, Term]:
    constraints: dict[PropKey, Term] = {}
    for pattern in star.patterns:
        if pattern.is_rdf_type():
            continue
        if not isinstance(pattern.object, Variable):
            key = prop_key_of(pattern)
            existing = constraints.get(key)
            if existing is not None and existing != pattern.object:
                raise OverlapError(
                    f"conflicting concrete objects for {key} within one star"
                )
            constraints[key] = pattern.object
    return constraints


def _build_rename(
    pattern1: GraphPattern,
    pattern2: GraphPattern,
    correspondence: StarCorrespondence,
) -> dict[Variable, Variable]:
    """Map GP2 variables onto GP1's canonical names.

    Raises :class:`OverlapError` when the patterns disagree in a way
    Definition 3.2 does not capture (e.g. a shared property bound to a
    constant in one pattern and a variable in the other).
    """
    rename: dict[Variable, Variable] = {}

    def assign(source: Variable, target: Variable) -> None:
        existing = rename.get(source)
        if existing is not None and existing != target:
            raise OverlapError(
                f"variable {source} would need to canonicalize to both "
                f"{existing} and {target}"
            )
        rename[source] = target

    for gp1_index, star1 in enumerate(pattern1.stars):
        star2 = pattern2.stars[correspondence.gp2_index(gp1_index)]
        if isinstance(star1.subject, Variable) and isinstance(star2.subject, Variable):
            assign(star2.subject, star1.subject)
        elif star1.subject != star2.subject:
            raise OverlapError("star subjects are incompatible concrete terms")
        shared = star1.props() & star2.props()
        for key in shared:
            tp1, tp2 = star1.pattern_for(key), star2.pattern_for(key)
            obj1, obj2 = tp1.object, tp2.object
            if isinstance(obj1, Variable) and isinstance(obj2, Variable):
                assign(obj2, obj1)
            elif isinstance(obj1, Variable) != isinstance(obj2, Variable):
                raise OverlapError(
                    f"shared property {key} is constrained to a constant in only "
                    "one pattern"
                )
            elif obj1 != obj2 and key.type_object is None:
                raise OverlapError(
                    f"shared property {key} has conflicting constant objects"
                )

    # Leftover GP2 variables (secondary-property objects) keep their names
    # unless they collide with a GP1 variable, in which case they get a
    # disambiguating suffix.
    gp1_vars = pattern1.variables()
    taken = set(gp1_vars) | set(rename.values())
    for variable in sorted(pattern2.variables(), key=lambda v: v.name):
        if variable in rename:
            continue
        if variable not in taken:
            rename[variable] = variable
            taken.add(variable)
            continue
        suffix = 2
        while Variable(f"{variable.name}_{suffix}") in taken:
            suffix += 1
        fresh = Variable(f"{variable.name}_{suffix}")
        rename[variable] = fresh
        taken.add(fresh)
    return rename


def _star_alpha(
    stars: tuple[StarPattern, ...],
    star_indices: tuple[int, ...],
    composite_stars: tuple[CompositeStar, ...],
) -> AlphaCondition:
    """α condition for one original pattern: its secondary properties
    (relative to each composite star's primaries) must be present."""
    required: set[PropKey] = set()
    for star, composite_index in zip(stars, star_indices):
        # A pattern's OPTIONAL properties are never required of a match.
        required |= star.required_props() - composite_stars[composite_index].p_prim
    return AlphaCondition(required=frozenset(required))


def build_composite(
    subquery1: GroupingSubquery, subquery2: GroupingSubquery
) -> CompositePlan:
    """Rewrite two overlapping grouping subqueries into a composite plan.

    Raises :class:`OverlapError` when the graph patterns do not overlap
    (Definition 3.2) or fall outside the composite rewrite's scope; the
    planner then falls back to sequential (RAPID+) evaluation, exactly
    as the paper prescribes for non-overlapping patterns.
    """
    pattern1, pattern2 = subquery1.pattern, subquery2.pattern
    correspondence = find_correspondence(pattern1, pattern2)
    if correspondence is None:
        raise OverlapError("graph patterns do not overlap (Definition 3.2)")
    rename = _build_rename(pattern1, pattern2, correspondence)
    canonical_stars2 = tuple(rename_star(star, rename) for star in pattern2.stars)

    composite_stars: list[CompositeStar] = []
    for gp1_index, star1 in enumerate(pattern1.stars):
        star2 = canonical_stars2[correspondence.gp2_index(gp1_index)]
        # OPTIONAL properties are never primary: matching must not require them.
        p_prim = star1.required_props() & star2.required_props()
        p_sec = (star1.props() | star2.props()) - p_prim
        extra = tuple(
            pattern
            for pattern in star2.patterns
            if prop_key_of(pattern) not in star1.props()
        )
        merged = StarPattern(
            star1.subject,
            star1.patterns + extra,
            star1.optional_props | star2.optional_props,
        )
        constraints = _concrete_constraints(merged)
        composite_stars.append(CompositeStar(merged, p_prim, p_sec, constraints))
    stars_tuple = tuple(composite_stars)

    indices1 = tuple(range(len(pattern1.stars)))
    alpha1 = _star_alpha(pattern1.stars, indices1, stars_tuple)
    canonical1 = CanonicalSubquery(
        subquery_id=0,
        stars=pattern1.stars,
        star_indices=indices1,
        group_by=subquery1.group_by,
        output_group_by=subquery1.group_by,
        aggregates=subquery1.aggregates,
        alpha=alpha1,
        filters=pattern1.filters,
        having=subquery1.having,
    )

    # GP2's stars keep their original order; each maps to the composite
    # position of its GP1 partner.
    indices2 = tuple(
        correspondence.pairs.index(gp2_index) for gp2_index in range(len(pattern2.stars))
    )
    alpha2 = _star_alpha(canonical_stars2, indices2, stars_tuple)
    canonical_group_by2 = tuple(rename.get(v, v) for v in subquery2.group_by)
    canonical_aggs2 = tuple(
        AggregateSpec(
            alias=agg.alias,
            func=agg.func,
            variable=None if agg.variable is None else rename.get(agg.variable, agg.variable),
            distinct=agg.distinct,
        )
        for agg in subquery2.aggregates
    )
    canonical2 = CanonicalSubquery(
        subquery_id=1,
        stars=canonical_stars2,
        star_indices=indices2,
        group_by=canonical_group_by2,
        output_group_by=subquery2.group_by,
        aggregates=canonical_aggs2,
        alpha=alpha2,
        filters=tuple(rename_expression(f, rename) for f in pattern2.filters),
        having=subquery2.having,
    )
    return CompositePlan(stars_tuple, (canonical1, canonical2))


def build_composite_n(subqueries: Sequence[GroupingSubquery]) -> CompositePlan:
    """N-way composite rewrite (the paper's future-work extension).

    Generalizes :func:`build_composite` to any number of overlapping
    grouping subqueries — the shape CUBE/ROLLUP/GROUPING SETS queries
    produce.  Every pattern must correspond star-by-star (Definition
    3.2) with the *base* pattern, chosen as the one with the most
    properties so that shared structure canonicalizes onto it.

    Raises :class:`OverlapError` when any pattern fails to overlap; the
    planner then falls back to sequential evaluation.
    """
    if len(subqueries) < 2:
        raise OverlapError("n-way composite needs at least two subqueries")
    if len(subqueries) == 2:
        return build_composite(subqueries[0], subqueries[1])

    def richness(subquery: GroupingSubquery) -> int:
        return sum(len(star.props()) for star in subquery.pattern.stars)

    base_index = max(range(len(subqueries)), key=lambda i: richness(subqueries[i]))
    base = subqueries[base_index]
    base_pattern = base.pattern

    # Per-subquery canonical stars (renamed onto the base's variables) and
    # star_indices into the base star order.
    canonical_stars: list[tuple[StarPattern, ...]] = [()] * len(subqueries)
    star_indices: list[tuple[int, ...]] = [()] * len(subqueries)
    canonical_stars[base_index] = base_pattern.stars
    star_indices[base_index] = tuple(range(len(base_pattern.stars)))
    renames: list[dict[Variable, Variable]] = [dict() for _ in subqueries]

    taken: set[Variable] = set(base_pattern.variables())
    for index, subquery in enumerate(subqueries):
        if index == base_index:
            continue
        correspondence = find_correspondence(base_pattern, subquery.pattern)
        if correspondence is None:
            raise OverlapError(
                f"subquery {index} does not overlap the base pattern (Definition 3.2)"
            )
        rename = _build_rename(base_pattern, subquery.pattern, correspondence)
        # Re-resolve leftover-variable collisions against the global pool so
        # different subqueries' private variables stay distinct.
        for source in sorted(subquery.pattern.variables(), key=lambda v: v.name):
            target = rename[source]
            if target in base_pattern.variables():
                continue  # canonicalized onto a base variable
            if target in taken:
                suffix = 2
                while Variable(f"{target.name}_{suffix}") in taken:
                    suffix += 1
                rename[source] = Variable(f"{target.name}_{suffix}")
            taken.add(rename[source])
        renames[index] = rename
        canonical_stars[index] = tuple(
            rename_star(star, rename) for star in subquery.pattern.stars
        )
        star_indices[index] = tuple(
            correspondence.pairs.index(j) for j in range(len(subquery.pattern.stars))
        )

    # Composite stars: base triple patterns plus every extra property any
    # subquery contributes; primaries are the properties ALL share.
    composite_stars: list[CompositeStar] = []
    for star_position, base_star in enumerate(base_pattern.stars):
        merged_patterns = list(base_star.patterns)
        present = set(base_star.props())
        p_prim = set(base_star.required_props())
        merged_optional = set(base_star.optional_props)
        for index in range(len(subqueries)):
            if index == base_index:
                continue
            own_position = star_indices[index].index(star_position)
            star = canonical_stars[index][own_position]
            p_prim &= star.required_props()
            merged_optional |= star.optional_props
            for pattern in star.patterns:
                if prop_key_of(pattern) not in present:
                    merged_patterns.append(pattern)
                    present.add(prop_key_of(pattern))
        merged = StarPattern(
            base_star.subject, tuple(merged_patterns), frozenset(merged_optional)
        )
        p_sec = merged.props() - frozenset(p_prim)
        composite_stars.append(
            CompositeStar(merged, frozenset(p_prim), p_sec, _concrete_constraints(merged))
        )
    stars_tuple = tuple(composite_stars)

    canonical_subqueries: list[CanonicalSubquery] = []
    for index, subquery in enumerate(subqueries):
        rename = renames[index]
        alpha = _star_alpha(canonical_stars[index], star_indices[index], stars_tuple)
        canonical_subqueries.append(
            CanonicalSubquery(
                subquery_id=index,
                stars=canonical_stars[index],
                star_indices=star_indices[index],
                group_by=tuple(rename.get(v, v) for v in subquery.group_by),
                output_group_by=subquery.group_by,
                aggregates=tuple(
                    AggregateSpec(
                        alias=agg.alias,
                        func=agg.func,
                        variable=(
                            None
                            if agg.variable is None
                            else rename.get(agg.variable, agg.variable)
                        ),
                        distinct=agg.distinct,
                    )
                    for agg in subquery.aggregates
                ),
                alpha=alpha,
                filters=tuple(
                    rename_expression(f, rename) for f in subquery.pattern.filters
                ),
                having=subquery.having,
            )
        )
    return CompositePlan(stars_tuple, tuple(canonical_subqueries))


def single_pattern_plan(subquery: GroupingSubquery) -> CompositePlan:
    """Degenerate composite for a single-grouping query: the pattern is
    its own composite (no secondary properties, trivially-true α)."""
    composite_stars = tuple(
        CompositeStar(
            star,
            star.required_props(),
            star.optional_props,
            _concrete_constraints(star),
        )
        for star in subquery.pattern.stars
    )
    canonical = CanonicalSubquery(
        subquery_id=0,
        stars=subquery.pattern.stars,
        star_indices=tuple(range(len(subquery.pattern.stars))),
        group_by=subquery.group_by,
        output_group_by=subquery.group_by,
        aggregates=subquery.aggregates,
        alpha=AlphaCondition(),
        filters=subquery.pattern.filters,
        having=subquery.having,
    )
    return CompositePlan(composite_stars, (canonical,))


def object_filters(
    star: StarPattern, filters: tuple[Expression, ...]
) -> dict[PropKey, list[Expression]]:
    """Filters that reference exactly one variable, where that variable
    is the object of one of the star's required triple patterns.

    These can be pushed into star formation (evaluated per candidate
    object value) — the FILTER push-in the paper applies when filter
    constraints are shared or touch non-intersecting properties.  A
    filter over an OPTIONAL pattern's object is never pushed: dropping
    the triples it rejects leaves the variable unbound, which is a
    different answer (``!BOUND(?x)`` would then hold for every subject);
    it stays a residual filter over the expanded rows.  So does a filter
    over a property the star names in more than one pattern: star
    formation tests a property's triples against one variable, and
    dropping the triples ``?a`` rejects would also take away the values
    another pattern's ``?b`` ranges over.
    """
    keys = [prop_key_of(pattern) for pattern in star.patterns]
    by_object_var: dict[Variable, PropKey] = {}
    for pattern, key in zip(star.patterns, keys):
        if (
            isinstance(pattern.object, Variable)
            and not pattern.is_rdf_type()
            and key not in star.optional_props
            and keys.count(key) == 1
        ):
            by_object_var.setdefault(pattern.object, key)
    pushable: dict[PropKey, list[Expression]] = {}
    for expression in filters:
        variables = expression_variables(expression)
        if len(variables) != 1:
            continue
        (variable,) = tuple(variables)
        key = by_object_var.get(variable)
        if key is not None:
            pushable.setdefault(key, []).append(expression)
    return pushable
