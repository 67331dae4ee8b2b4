"""The analytical query model: star patterns, graph patterns, groupings.

This is the structural form every optimizing engine consumes.  A SPARQL
analytical query (Figure 1 of the paper) decomposes into one *grouping
subquery* per nested SELECT — each a graph pattern made of
subject-rooted star patterns plus a grouping/aggregation spec — and an
outer combination (join on shared grouping keys, plus any arithmetic
over the aggregate aliases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.errors import PlanningError, UnsupportedQueryError
from repro.mapreduce import cost
from repro.rdf.terms import IRI, Term, TermOrVar, Variable, cache_slot
from repro.rdf.triples import TriplePattern
from repro.sparql.ast import (
    AggregateExpr,
    FilterPattern,
    GroupGraphPattern,
    SelectQuery,
    SubSelect,
    TriplesBlock,
)
from repro.sparql.expressions import (
    Expression,
    VarExpr,
    expression_variables,
)


@dataclass(frozen=True, slots=True)
class PropKey:
    """The paper's notion of a star-pattern "property".

    For ordinary triple patterns this is just the property IRI.  For
    ``rdf:type`` patterns with a concrete class the key also carries the
    class (the paper writes ``ty18`` for ``rdf:type PT18``): Definition
    3.1 requires type objects to agree for stars to overlap.

    The engines obtain keys from :func:`prop_key`, which interns them; a
    key built by hand is a distinct instance that compares and hashes
    equal to the interned one.
    """

    property: IRI
    type_object: Term | None = None

    def short(self) -> str:
        name = self.property.local_name()
        if self.type_object is not None and isinstance(self.type_object, IRI):
            return f"{name}:{self.type_object.local_name()}"
        return name

    def __str__(self) -> str:
        return self.short()


#: ``(property, type_object) -> the one PropKey`` handed out for it.
#: Process-level like :func:`repro.ntga.factorized.schema_for`'s table: it
#: holds vocabulary (a few keys per dataset), never plans or data.
_PROP_KEYS: dict[tuple[IRI, Term | None], PropKey] = {}


def prop_key(property: IRI, type_object: Term | None = None) -> PropKey:
    """The interned :class:`PropKey` for ``(property, type_object)``.

    Every key that reaches a ``props()`` set, a star schema or a plan's
    key set comes from here, so the subset tests and schema probes the
    operators run per record find their keys by identity instead of
    falling back to a Python-level ``__eq__`` per matched key.
    """
    key = _PROP_KEYS.get((property, type_object))
    if key is None:
        key = _PROP_KEYS[(property, type_object)] = PropKey(property, type_object)
    return key


_Fact = TypeVar("_Fact")


def _pinned(record, slot: str, derive: Callable[..., _Fact]) -> _Fact:
    """*record*'s fact in cache slot *slot*, derived by ``derive(record)``
    on first use and pinned to the frozen instance (DESIGN.md §7.3's memo
    idiom); :func:`repro.perf.reference_mode` derives it on every call.
    A derivation that raises pins nothing."""
    if not cost.SIZE_CACHE_ENABLED:
        return derive(record)
    value = getattr(record, slot)
    if value is None:
        value = derive(record)
        object.__setattr__(record, slot, value)
    return value


def _derive_prop_key(pattern: TriplePattern) -> PropKey:
    prop = pattern.prop()
    if prop is None:
        raise UnsupportedQueryError(
            "unbound-property triple patterns are outside the supported scope "
            f"(pattern {pattern})"
        )
    if pattern.is_rdf_type() and not isinstance(pattern.object, Variable):
        return prop_key(prop, pattern.object)
    return prop_key(prop)


def prop_key_of(pattern: TriplePattern) -> PropKey:
    """The :class:`PropKey` a triple pattern contributes to its star,
    pinned in the pattern's ``_key`` slot, so it lives exactly as long as
    the pattern does.  Ungated, like the pattern's ``variables()``: an
    interned key is vocabulary, not an estimate."""
    key = pattern._key
    if key is None:
        key = _derive_prop_key(pattern)
        object.__setattr__(pattern, "_key", key)
    return key


@dataclass(frozen=True, slots=True)
class StarPattern:
    """A subject-rooted star: triple patterns sharing one subject.

    ``optional_props`` marks properties the star matches optionally
    (SPARQL OPTIONAL on the same subject — the user-level counterpart of
    Definition 3.3's P_opt): a triplegroup without them still matches,
    and their variables stay unbound.  A property may not be both
    required and optional within one star.
    """

    subject: TermOrVar
    patterns: tuple[TriplePattern, ...]
    optional_props: frozenset[PropKey] = frozenset()
    #: Pinned derived facts (see :func:`_pinned`); ``==``, ``hash`` and
    #: ``repr`` do not see them.
    _props: frozenset[PropKey] | None = cache_slot()
    _required: frozenset[PropKey] | None = cache_slot()
    _variables: frozenset[Variable] | None = cache_slot()
    _type_keys: frozenset[PropKey] | None = cache_slot()

    def __post_init__(self) -> None:
        if not self.patterns:
            raise PlanningError("a star pattern needs at least one triple pattern")
        for pattern in self.patterns:
            if pattern.subject != self.subject:
                raise PlanningError(
                    f"triple pattern {pattern} does not share star subject {self.subject}"
                )
        if not self.optional_props <= self.props():
            raise PlanningError("optional properties must occur in the star")
        if not (self.props() - self.optional_props):
            raise PlanningError("a star pattern needs at least one required property")

    def props(self) -> frozenset[PropKey]:
        """``props(Stp)``: the set of property keys in this star."""
        return _pinned(self, "_props", _star_props)

    def required_props(self) -> frozenset[PropKey]:
        """Properties a matching triplegroup must contain."""
        return _pinned(self, "_required", _star_required_props)

    def is_optional(self, pattern: TriplePattern) -> bool:
        return prop_key_of(pattern) in self.optional_props

    def variables(self) -> frozenset[Variable]:
        return _pinned(self, "_variables", _star_variables)

    def pattern_for(self, key: PropKey) -> TriplePattern:
        for pattern in self.patterns:
            if prop_key_of(pattern) == key:
                return pattern
        raise PlanningError(f"star has no triple pattern for property {key}")

    def type_keys(self) -> frozenset[PropKey]:
        return _pinned(self, "_type_keys", _star_type_keys)

    def __len__(self) -> int:
        return len(self.patterns)


def _star_props(star: StarPattern) -> frozenset[PropKey]:
    return frozenset(prop_key_of(p) for p in star.patterns)


def _star_required_props(star: StarPattern) -> frozenset[PropKey]:
    return star.props() - star.optional_props


def _star_variables(star: StarPattern) -> frozenset[Variable]:
    result: frozenset[Variable] = frozenset()
    for pattern in star.patterns:
        result |= pattern.variables()
    return result


def _star_type_keys(star: StarPattern) -> frozenset[PropKey]:
    return frozenset(k for k in star.props() if k.type_object is not None)


@dataclass(frozen=True)
class StarJoin:
    """A join edge between two stars of a graph pattern.

    ``variable`` is the paper's jv; the joining triple patterns and the
    roles the variable plays in each are what role-equivalence
    (Definition 3.2) compares.
    """

    left_star: int
    right_star: int
    variable: Variable
    left_pattern: TriplePattern
    right_pattern: TriplePattern


@dataclass(frozen=True, slots=True)
class GraphPattern:
    """A conjunction of star patterns with optional filters."""

    stars: tuple[StarPattern, ...]
    filters: tuple[Expression, ...] = ()
    #: Pinned derived facts, as on :class:`StarPattern`.
    _variables: frozenset[Variable] | None = cache_slot()
    _joins: tuple[StarJoin, ...] | None = cache_slot()
    _connected: bool | None = cache_slot()

    def triple_patterns(self) -> tuple[TriplePattern, ...]:
        return tuple(p for star in self.stars for p in star.patterns)

    def variables(self) -> frozenset[Variable]:
        return _pinned(self, "_variables", _pattern_variables)

    def star_joins(self) -> tuple[StarJoin, ...]:
        """The join edges between stars, derived from shared variables.

        For each star pair and shared variable, one representative
        joining-triple-pattern pair is reported (the first found, in
        pattern order) — sufficient for role-equivalence checks on the
        paper's workload, where join variables appear once per star.
        """
        return _pinned(self, "_joins", _star_joins)

    def is_connected(self) -> bool:
        """True when the stars form one connected join graph."""
        return _pinned(self, "_connected", _is_connected)


def _pattern_variables(pattern: GraphPattern) -> frozenset[Variable]:
    result: frozenset[Variable] = frozenset()
    for star in pattern.stars:
        result |= star.variables()
    return result


def _star_joins(pattern: GraphPattern) -> tuple[StarJoin, ...]:
    stars = pattern.stars
    joins: list[StarJoin] = []
    for i, left in enumerate(stars):
        for j in range(i + 1, len(stars)):
            right = stars[j]
            shared = left.variables() & right.variables()
            for variable in sorted(shared, key=lambda v: v.name):
                left_tp = next(
                    (p for p in left.patterns if variable in p.variables()), None
                )
                right_tp = next(
                    (p for p in right.patterns if variable in p.variables()), None
                )
                if left_tp is not None and right_tp is not None:
                    joins.append(StarJoin(i, j, variable, left_tp, right_tp))
    return tuple(joins)


def _is_connected(pattern: GraphPattern) -> bool:
    count = len(pattern.stars)
    if count <= 1:
        return True
    adjacency: dict[int, set[int]] = {i: set() for i in range(count)}
    for join in pattern.star_joins():
        adjacency[join.left_star].add(join.right_star)
        adjacency[join.right_star].add(join.left_star)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == count


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation requested by a grouping subquery."""

    alias: Variable
    func: str  # COUNT/SUM/AVG/MIN/MAX
    variable: Variable | None  # None = COUNT(*)
    distinct: bool = False

    def __str__(self) -> str:
        arg = "*" if self.variable is None else self.variable.n3()
        if self.distinct:
            arg = f"DISTINCT {arg}"
        return f"{self.func}({arg}) AS {self.alias.n3()}"


@dataclass(frozen=True)
class GroupingSubquery:
    """A graph pattern with a grouping/aggregation specification.

    ``group_by`` of ``()`` means GROUP BY ALL (a single roll-up group).
    """

    pattern: GraphPattern
    group_by: tuple[Variable, ...]
    aggregates: tuple[AggregateSpec, ...]
    #: Post-aggregation filter over grouping keys and aggregate aliases
    #: (SPARQL HAVING); None = no filter.
    having: Expression | None = None

    def projected_variables(self) -> tuple[Variable, ...]:
        return self.group_by + tuple(spec.alias for spec in self.aggregates)


@dataclass(frozen=True)
class AnalyticalQuery:
    """The decomposed form of a SPARQL analytical query.

    The final result is the join of all subquery results on their shared
    grouping variables, extended with ``outer_extends`` expressions
    (e.g. the price-ratio computation of AQ1) and projected onto
    ``projection``.
    """

    subqueries: tuple[GroupingSubquery, ...]
    projection: tuple[Variable, ...]
    outer_extends: tuple[tuple[Variable, Expression], ...] = ()
    distinct: bool = False
    #: Final ordering/slicing of the combined result (applied by every
    #: engine after the final join, on identical sort keys).
    order_by: tuple = ()  # tuple[OrderCondition, ...]
    limit: int | None = None
    offset: int = 0
    source_text: str | None = field(default=None, compare=False)

    def is_multi_grouping(self) -> bool:
        return len(self.subqueries) > 1

    def has_modifiers(self) -> bool:
        return bool(self.order_by) or self.limit is not None or self.offset > 0


# ---------------------------------------------------------------------------
# Decomposition from the parsed AST
# ---------------------------------------------------------------------------


def decompose_stars(
    patterns: Iterable[TriplePattern],
    optional_patterns: Iterable[TriplePattern] = (),
) -> tuple[StarPattern, ...]:
    """Group triple patterns into subject-rooted stars (input order kept).

    *optional_patterns* attach to stars already rooted by a required
    pattern; mixing a required and an optional triple pattern of the
    same property in one star is rejected (the optional flag is tracked
    per property).
    """
    order: list[TermOrVar] = []
    grouped: dict[TermOrVar, list[TriplePattern]] = {}
    for pattern in patterns:
        if pattern.subject not in grouped:
            grouped[pattern.subject] = []
            order.append(pattern.subject)
        grouped[pattern.subject].append(pattern)
    optional_keys: dict[TermOrVar, set[PropKey]] = {}
    for pattern in optional_patterns:
        if pattern.subject not in grouped:
            raise UnsupportedQueryError(
                "OPTIONAL patterns must share a subject with the required pattern "
                f"(subject {pattern.subject})"
            )
        key = prop_key_of(pattern)
        required_keys = {prop_key_of(p) for p in grouped[pattern.subject]}
        if key in required_keys:
            raise UnsupportedQueryError(
                f"property {key} is both required and OPTIONAL on the same subject"
            )
        grouped[pattern.subject].append(pattern)
        optional_keys.setdefault(pattern.subject, set()).add(key)
    return tuple(
        StarPattern(
            subject,
            tuple(grouped[subject]),
            frozenset(optional_keys.get(subject, ())),
        )
        for subject in order
    )


def _graph_pattern_from_group(group: GroupGraphPattern) -> GraphPattern:
    from repro.sparql.ast import OptionalPattern

    patterns: list[TriplePattern] = []
    optional: list[TriplePattern] = []
    filters: list[Expression] = []
    for element in group.elements:
        if isinstance(element, TriplesBlock):
            patterns.extend(element.patterns)
        elif isinstance(element, FilterPattern):
            filters.append(element.expression)
        elif isinstance(element, OptionalPattern):
            inner = element.pattern.triple_patterns()
            if len(inner) != 1 or len(element.pattern.elements) != 1:
                raise UnsupportedQueryError(
                    "OPTIONAL in grouping subqueries supports exactly one "
                    "triple pattern per clause"
                )
            optional.append(inner[0])
        elif isinstance(element, GroupGraphPattern):
            nested = _graph_pattern_from_group(element)
            patterns.extend(nested.triple_patterns())
            filters.extend(nested.filters)
        else:
            raise UnsupportedQueryError(
                "grouping subqueries must contain only triple patterns, FILTERs, "
                f"and single-pattern OPTIONALs (found {type(element).__name__})"
            )
    if not patterns:
        raise UnsupportedQueryError("a grouping subquery needs at least one triple pattern")

    # Optional object variables must not join with anything else: the
    # engines expand them per star, which is only left-join-equivalent
    # when the variable is private to its OPTIONAL clause.
    required_vars: set[Variable] = set()
    for pattern in patterns:
        required_vars |= pattern.variables()
    seen_optional_vars: set[Variable] = set()
    for pattern in optional:
        if isinstance(pattern.object, Variable):
            if pattern.object in required_vars or pattern.object in seen_optional_vars:
                raise UnsupportedQueryError(
                    f"OPTIONAL variable {pattern.object} must not occur elsewhere"
                )
            seen_optional_vars.add(pattern.object)
    return GraphPattern(decompose_stars(patterns, optional), tuple(filters))


def _aggregate_spec(alias: Variable, expression: AggregateExpr) -> AggregateSpec:
    if expression.arg is None:
        return AggregateSpec(alias, expression.func, None, expression.distinct)
    if isinstance(expression.arg, VarExpr):
        return AggregateSpec(alias, expression.func, expression.arg.variable, expression.distinct)
    raise UnsupportedQueryError(
        "engines support aggregates over a plain variable or '*' "
        f"(found {expression})"
    )


def _grouping_subquery(query: SelectQuery) -> GroupingSubquery:
    if not query.is_grouped():
        raise UnsupportedQueryError("subquery is not a grouping query")
    pattern = _graph_pattern_from_group(query.where)
    group_by = query.group_by or ()
    aggregates: list[AggregateSpec] = []
    for item in query.projection:
        if isinstance(item.expression, AggregateExpr):
            aggregates.append(_aggregate_spec(item.alias, item.expression))
        elif isinstance(item.expression, VarExpr):
            if item.expression.variable not in group_by:
                raise UnsupportedQueryError(
                    f"projected variable {item.alias} is neither grouped nor aggregated"
                )
        else:
            raise UnsupportedQueryError(
                "grouping subqueries may project only group variables and aggregates"
            )
    if not aggregates:
        raise UnsupportedQueryError("a grouping subquery needs at least one aggregate")
    if query.having is not None:
        allowed = set(group_by) | {a.alias for a in aggregates}
        free = expression_variables(query.having) - allowed
        if free:
            raise UnsupportedQueryError(
                f"HAVING may only use grouping keys and aggregate aliases "
                f"(unknown: {sorted(v.name for v in free)})"
            )
    return GroupingSubquery(pattern, tuple(group_by), tuple(aggregates), query.having)


def from_select_query(query: SelectQuery, source_text: str | None = None) -> AnalyticalQuery:
    """Extract the analytical form of a parsed SELECT query.

    Two shapes are accepted (covering the paper's G and MG workloads):

    * a single grouped SELECT over a basic graph pattern, or
    * a SELECT whose WHERE clause consists solely of grouped subselects,
      joined on their shared grouping variables, optionally with
      expression projections over the aggregate aliases.
    """
    subselects = [e for e in query.where.elements if isinstance(e, SubSelect)]
    non_subselects = [e for e in query.where.elements if not isinstance(e, SubSelect)]

    if subselects and non_subselects:
        raise UnsupportedQueryError(
            "analytical queries must not mix subselects with other top-level patterns"
        )

    if subselects:
        if query.having is not None:
            raise UnsupportedQueryError(
                "HAVING on the outer SELECT of a multi-grouping query is "
                "unsupported; apply it inside the grouping subqueries"
            )
        subqueries = tuple(_grouping_subquery(s.query) for s in subselects)
        available: set[Variable] = set()
        for subquery in subqueries:
            available |= set(subquery.projected_variables())
        extends: list[tuple[Variable, Expression]] = []
        projection: list[Variable] = []
        for item in query.projection:
            projection.append(item.alias)
            is_bare = isinstance(item.expression, VarExpr) and item.expression.variable == item.alias
            if is_bare:
                if item.alias not in available:
                    raise UnsupportedQueryError(
                        f"projected variable {item.alias} is not produced by any subquery"
                    )
                continue
            if isinstance(item.expression, AggregateExpr):
                raise UnsupportedQueryError(
                    "aggregates in the outer SELECT of a multi-grouping query are unsupported"
                )
            free = expression_variables(item.expression) - available
            if free:
                raise UnsupportedQueryError(
                    f"outer expression uses unavailable variable(s) "
                    f"{sorted(v.name for v in free)}"
                )
            extends.append((item.alias, item.expression))
        _check_order_by(query, set(projection))
        return AnalyticalQuery(
            subqueries=subqueries,
            projection=tuple(projection),
            outer_extends=tuple(extends),
            distinct=query.distinct,
            order_by=query.order_by,
            limit=query.limit,
            offset=query.offset,
            source_text=source_text,
        )

    # Single-grouping form.
    subquery = _grouping_subquery(query)
    _check_order_by(query, set(subquery.projected_variables()))
    return AnalyticalQuery(
        subqueries=(subquery,),
        projection=subquery.projected_variables(),
        outer_extends=(),
        distinct=query.distinct,
        order_by=query.order_by,
        limit=query.limit,
        offset=query.offset,
        source_text=source_text,
    )


def _check_order_by(query: SelectQuery, available: set[Variable]) -> None:
    for condition in query.order_by:
        free = expression_variables(condition.expression) - available
        if free:
            raise UnsupportedQueryError(
                f"ORDER BY may only use projected variables "
                f"(unknown: {sorted(v.name for v in free)})"
            )


def parse_analytical(text: str, prefixes: dict[str, str] | None = None) -> AnalyticalQuery:
    """Parse SPARQL text directly into the analytical model."""
    from repro.sparql.parser import parse_query

    return from_select_query(parse_query(text, prefixes), source_text=text)
