"""The (Nested) TripleGroup data model.

A *triplegroup* (paper Section 2.3) is a group of triples sharing a
subject — the unit of data the NTGA operators manipulate.  Star
subpattern matches are triplegroups; graph pattern matches are *joined*
triplegroups pairing one triplegroup per star plus the join-variable
bindings fixed when the pair was formed.

Joined triplegroups keep multi-valued properties **nested** (the triples
stay grouped, not expanded into rows).  This is NTGA's "concise
denormalized representation": a publication with 10 MeSH headings and 5
authors is one nested record rather than 50 flat rows, which is exactly
why the paper's approach survives query MG13 while naive Hive exhausts
HDFS space.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.core.query_model import PropKey, StarPattern, prop_key_of
from repro.errors import ReproError
from repro.mapreduce import cost
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import RDF_TYPE, Triple


@lru_cache(maxsize=None)
def _split_prop_keys(
    keys: frozenset[PropKey],
) -> tuple[frozenset, frozenset]:
    """Split a projection key set into plain-property and type-qualified
    lookups.  Pure and cached: the same few key sets (one per star
    pattern in a plan) are re-split for every projected group."""
    plain = frozenset(k.property for k in keys if k.type_object is None)
    typed = frozenset(
        (k.property, k.type_object) for k in keys if k.type_object is not None
    )
    return plain, typed


@dataclass(frozen=True)
class TripleGroup:
    """Triples sharing one subject."""

    subject: Term
    triples: tuple[Triple, ...]

    #: A flat group has no column schema (a class constant, not a field):
    #: how expansion tells it from a
    #: :class:`~repro.ntga.factorized.FactorizedRelation` without a type test.
    schema = None

    def __post_init__(self) -> None:
        subject = self.subject
        for triple in self.triples:
            # Identity check first: groups are almost always built from
            # triples that literally carry the same subject object.
            if triple.subject is not subject and triple.subject != subject:
                raise ReproError(
                    f"triple {triple} does not share triplegroup subject {self.subject}"
                )

    def props(self) -> frozenset[PropKey]:
        """``props(tg)``: the property keys present in this group.

        ``rdf:type`` triples contribute a type-qualified key per class,
        mirroring the paper's ``ty18`` notation.  Memoized on the frozen
        instance (every NTGA operator consults it, often repeatedly per
        group); :func:`repro.perf.reference_mode` disables the memo.
        """
        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_props")
            if cached is not None:
                return cached
        keys = set()
        for triple in self.triples:
            if triple.property == RDF_TYPE:
                keys.add(PropKey(triple.property, triple.object))
            else:
                keys.add(PropKey(triple.property))
        result = frozenset(keys)
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_props", result)
        return result

    def objects_for(self, key: PropKey) -> tuple[Term, ...]:
        """All object values for a property key (order = triple order).

        Memoized per (group, key) — star expansion probes the same group
        once per star pattern, re-scanning the triple list each time.
        """
        if cost.SIZE_CACHE_ENABLED:
            cache = self.__dict__.get("_objects")
            if cache is None:
                cache = {}
                object.__setattr__(self, "_objects", cache)
            result = cache.get(key)
            if result is None:
                result = self._compute_objects(key)
                cache[key] = result
            return result
        return self._compute_objects(key)

    def _compute_objects(self, key: PropKey) -> tuple[Term, ...]:
        if key.type_object is not None:
            return tuple(
                t.object
                for t in self.triples
                if t.property == key.property and t.object == key.type_object
            )
        return tuple(t.object for t in self.triples if t.property == key.property)

    def project(self, keys: frozenset[PropKey]) -> "TripleGroup":
        """Keep only triples matching the given property keys.

        Memoized per (group, keys): star filters project every stored
        group once per composite star per job, and stored groups outlive
        a single execution (the triplegroup store is cached on the
        graph), so identical projections recur constantly.  Returning
        the cached frozen instance also lets its own props/objects/size
        memos accumulate instead of being rebuilt for each fresh copy.
        """
        if cost.SIZE_CACHE_ENABLED:
            cache = self.__dict__.get("_projections")
            if cache is None:
                cache = {}
                object.__setattr__(self, "_projections", cache)
            projected = cache.get(keys)
            if projected is None:
                projected = self._compute_project(keys)
                cache[keys] = projected
            return projected
        return self._compute_project(keys)

    def _compute_project(self, keys: frozenset[PropKey]) -> "TripleGroup":
        plain, typed = _split_prop_keys(keys)
        kept = []
        for triple in self.triples:
            if triple.property in plain or (triple.property, triple.object) in typed:
                kept.append(triple)
        return TripleGroup(self.subject, tuple(kept))

    def estimated_size(self) -> int:
        """Serialized size of the *grouped* text representation.

        The subject is written once for the whole group — this is the
        denormalization that makes triplegroups concise relative to flat
        rows when properties are multi-valued.  Memoized on the frozen
        instance; disabled in :func:`repro.perf.reference_mode`.
        """
        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_size")
            if cached is not None:
                return cached
        estimate_size = cost.estimate_size
        size = estimate_size(self.subject) + 4
        for triple in self.triples:
            size += estimate_size(triple.property) + estimate_size(triple.object) + 2
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size

    def factorized_size(self) -> int:
        """Serialized size of the factorized (columnar) encoding.

        One object column per property: the subject and each property
        name are plan/schema metadata written once, so the per-record
        bytes are the subject plus a 1-byte column marker and the object
        values with 1-byte separators — matching
        :meth:`repro.ntga.factorized.FactorizedRelation.estimated_size`
        for a schema covering this group's properties.  Memoized on the
        frozen instance like :meth:`estimated_size` (same PR 1 slot
        machinery); feeds the store's flat-vs-factorized byte totals
        that price the ``"auto"`` representation choice.
        """
        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_fsize")
            if cached is not None:
                return cached
        estimate_size = cost.estimate_size
        size = estimate_size(self.subject) + 4
        seen_columns = set()
        for triple in self.triples:
            if triple.property not in seen_columns:
                seen_columns.add(triple.property)
                size += 1
            size += estimate_size(triple.object) + 1
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_fsize", size)
        return size

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)


@dataclass(frozen=True)
class JoinedTripleGroup:
    """A match of (part of) a composite graph pattern.

    ``components`` holds one triplegroup per star (indexed by star
    position in the composite graph pattern).  ``fixed`` records the
    join-variable bindings chosen when the components were paired; when
    a join key was one value of a multi-valued property, expansion must
    honour that choice rather than re-expanding every value.
    """

    components: tuple[tuple[int, TripleGroup], ...]
    fixed: tuple[tuple[Variable, Term], ...] = ()

    def component(self, star_index: int) -> TripleGroup | None:
        for index, group in self.components:
            if index == star_index:
                return group
        return None

    def props(self) -> frozenset[PropKey]:
        """Union of component property-key sets (for α conditions).

        Memoized like :meth:`TripleGroup.props` — joined groups are
        immutable once built.
        """
        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_props")
            if cached is not None:
                return cached
        keys: frozenset[PropKey] = frozenset()
        for _, group in self.components:
            keys |= group.props()
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_props", keys)
        return keys

    def fixed_bindings(self) -> dict[Variable, Term]:
        return dict(self.fixed)

    def merge(
        self, other: "JoinedTripleGroup", extra_fixed: Iterable[tuple[Variable, Term]] = ()
    ) -> "JoinedTripleGroup":
        return JoinedTripleGroup(
            self.components + other.components,
            tuple(dict(self.fixed + other.fixed + tuple(extra_fixed)).items()),
        )

    def estimated_size(self) -> int:
        if cost.SIZE_CACHE_ENABLED:
            cached = self.__dict__.get("_size")
            if cached is not None:
                return cached
        size = sum(group.estimated_size() for _, group in self.components)
        size += sum(cost.estimate_size(t) for _, t in self.fixed)
        size += 8
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size

    @classmethod
    def single(
        cls, star_index: int, group: TripleGroup, fixed: Iterable[tuple[Variable, Term]] = ()
    ) -> "JoinedTripleGroup":
        return cls(((star_index, group),), tuple(fixed))


def group_by_subject(triples: Iterable[Triple]) -> list[TripleGroup]:
    """The NTGA pre-processing step: subject triplegroups."""
    grouped: dict[Term, list[Triple]] = defaultdict(list)
    for triple in triples:
        grouped[triple.subject].append(triple)
    return [TripleGroup(subject, tuple(ts)) for subject, ts in grouped.items()]


def equivalence_class(group: TripleGroup) -> frozenset:
    """The storage equivalence class: the set of property IRIs."""
    return frozenset(t.property for t in group.triples)


# ---------------------------------------------------------------------------
# Binding expansion: compiled once per plan, run once per record
# ---------------------------------------------------------------------------
#
# Everything about a pattern that is fixed per plan -- its property keys,
# which of them are OPTIONAL, which objects are variables, whether a
# variable can already be bound when a step reaches it, where each key's
# column sits in a factorized schema, which variables two stars share --
# is resolved when the plan is compiled.  Per record the step loop only
# indexes and extends.


class StarPlan:
    """One star pattern compiled for expansion against triplegroups.

    ``steps`` holds one tuple per triple pattern, in pattern order::

        (column, only, key, optional, object, is_variable, repeated, plain)

    ``column`` / ``only`` place the key in a factorized schema (see
    :meth:`_bind`); in the schema-less ``steps`` they are ``-1`` /
    ``None`` and the step probes ``objects_for(key)``.  ``repeated``
    marks an object variable the star may already have bound (its
    subject, or an earlier object); ``plain`` marks a concrete object
    that is looked up by equality (a type-qualified key's candidates are
    already the matching class).
    """

    __slots__ = ("subject_var", "subject_term", "steps", "variables", "_bound")

    def __init__(self, star: StarPattern):
        subject = star.subject
        subject_is_var = isinstance(subject, Variable)
        self.subject_var = subject if subject_is_var else None
        self.subject_term = None if subject_is_var else subject
        seen = {subject} if subject_is_var else set()
        steps = []
        for pattern in star.patterns:
            key = prop_key_of(pattern)
            optional = key in star.optional_props
            obj = pattern.object
            is_variable = isinstance(obj, Variable)
            if optional and not is_variable:
                continue  # an OPTIONAL concrete object neither binds nor rejects
            repeated = is_variable and obj in seen
            steps.append(
                (-1, None, key, optional, obj, is_variable, repeated, key.type_object is None)
            )
            if is_variable:
                seen.add(obj)
        self.steps = tuple(steps)
        #: Every variable a solution of this star can bind.
        self.variables = frozenset(seen)
        #: ``(schema, steps placed in it)`` for the factorized schema last
        #: expanded against.  One entry is enough -- every record a job
        #: feeds one star comes out of the same star filter -- and it
        #: lives and dies with the plan, so nothing accumulates.
        self._bound: tuple = (None, ())

    def _bind(self, schema) -> tuple:
        """Place every step's key in *schema*: once per schema, instead
        of a hashed ``PropKey`` probe per step per record."""
        steps = tuple(schema.column_for(step[2]) + step[2:] for step in self.steps)
        self._bound = (schema, steps)
        return steps

    def expand(
        self,
        group: "TripleGroup",
        fixed: dict[Variable, Term] | None = None,
        fill_fixed: bool = True,
    ) -> list[dict[Variable, Term]]:
        """All solution mappings of the star against *group*, in BGP
        expansion order (the first pattern varies slowest).  *fixed*
        bindings restrict the expansion and, under *fill_fixed*, are
        added to every solution that does not bind them itself.

        A solution dict is extended in place whenever a step has one
        candidate for a variable that cannot be bound yet; copies are
        made only on real fanout.
        """
        subject = group.subject
        subject_var = self.subject_var
        if subject_var is None:
            if self.subject_term != subject:
                return []
            solutions: list[dict[Variable, Term]] = [{}]
        else:
            if fixed:
                required = fixed.get(subject_var)
                if required is not None and required != subject:
                    return []
            solutions = [{subject_var: subject}]

        schema = group.schema
        if schema is None:
            columns = None
            steps = self.steps
            objects_for = group.objects_for
        else:
            columns = group.columns
            bound_schema, steps = self._bound
            if bound_schema is not schema:
                steps = self._bind(schema)

        for column, only, key, optional, obj, is_variable, repeated, plain in steps:
            if columns is None:
                candidates = objects_for(key)
            elif column < 0:
                candidates = ()
            else:
                candidates = columns[column]
                if only is not None:
                    candidates = tuple(c for c in candidates if c == only)
            if not is_variable:
                if (obj not in candidates) if plain else (not candidates):
                    return []
                continue
            if fixed:
                required = fixed.get(obj)
                if required is not None:
                    candidates = tuple(c for c in candidates if c == required)
            if not candidates:
                if optional:
                    continue  # left-join semantics: variable stays unbound
                return []
            if repeated:
                # Bound already -- or not, after a skipped OPTIONAL:
                # decided solution by solution.
                checked = []
                for solution in solutions:
                    bound = solution.get(obj)
                    if bound is None:
                        for candidate in candidates:
                            checked.append({**solution, obj: candidate})
                    elif bound in candidates:
                        checked.append(solution)
                if not checked:
                    return []
                solutions = checked
            elif len(candidates) == 1:
                candidate = candidates[0]
                for solution in solutions:
                    solution[obj] = candidate
            else:
                # Real fanout.  Merging one-entry dicts reuses their
                # stored key hashes: no hash call per produced solution.
                bindings = [{obj: candidate} for candidate in candidates]
                solutions = [
                    {**solution, **binding}
                    for solution in solutions
                    for binding in bindings
                ]
        if fixed and fill_fixed:
            for solution in solutions:
                for variable, term in fixed.items():
                    solution.setdefault(variable, term)
        return solutions


class JoinPlan:
    """A multi-star pattern compiled for expansion against joined
    triplegroups: one :class:`StarPlan` per star beside the component
    index it reads (*components*, star positions when omitted), and the
    variables that occur in more than one star."""

    __slots__ = ("stars", "shared")

    def __init__(
        self,
        stars: Sequence[StarPattern],
        components: Sequence[int] | None = None,
    ):
        plans = [StarPlan(star) for star in stars]
        if components is None:
            components = range(len(plans))
        self.stars = tuple(zip(components, plans, strict=True))
        seen: set[Variable] = set()
        shared: set[Variable] = set()
        for plan in plans:
            shared |= seen & plan.variables
            seen |= plan.variables
        self.shared = tuple(shared)

    def expand(self, joined: JoinedTripleGroup) -> list[dict[Variable, Term]]:
        """Solution mappings of the pattern against *joined*.

        Components not covered by a star are ignored -- this is how an
        original graph pattern is expanded from a composite match
        without inheriting the other pattern's multiplicity.
        """
        fixed = dict(joined.fixed) if joined.fixed else None
        component = joined.component
        solutions: list[dict[Variable, Term]] | None = None
        checked = None
        for component_index, plan in self.stars:
            group = component(component_index)
            if group is None:
                return []
            # Only the first star's solutions carry the fixed bindings
            # the stars do not bind themselves: merged in first, they
            # land exactly where the per-star fill used to put them.
            expansions = plan.expand(group, fixed, solutions is None)
            if not expansions:
                return []
            if solutions is None:
                solutions = expansions
                continue
            if checked is None:
                # A variable two stars share needs no consistency check
                # when it is a fixed join binding: each star already
                # restricted it to that one value.
                if fixed:
                    checked = any(variable not in fixed for variable in self.shared)
                else:
                    checked = bool(self.shared)
            if checked:
                solutions = _consistent_product(solutions, expansions)
                if not solutions:
                    return []
            elif len(expansions) == 1:
                addition = expansions[0]
                for solution in solutions:
                    solution.update(addition)
            else:
                solutions = [
                    {**solution, **addition}
                    for solution in solutions
                    for addition in expansions
                ]
        return solutions if solutions is not None else [{}]


def _consistent_product(
    left: list[dict[Variable, Term]], right: list[dict[Variable, Term]]
) -> list[dict[Variable, Term]]:
    """``left x right`` in product order, keeping the combinations that
    agree on every variable both sides bind."""
    merged_all = []
    for solution in left:
        for addition in right:
            merged = dict(solution)
            for variable, term in addition.items():
                existing = merged.get(variable)
                if existing is None:
                    merged[variable] = term
                elif existing != term:
                    break
            else:
                merged_all.append(merged)
    return merged_all


def star_solutions(
    star: StarPattern,
    group: TripleGroup,
    fixed: dict[Variable, Term] | None = None,
) -> list[dict[Variable, Term]]:
    """All solution mappings of *star* against one triplegroup.

    Multi-valued properties expand by cross product, exactly as SPARQL
    BGP semantics requires; ``fixed`` bindings (join choices) restrict
    the expansion.  Compiles the star on every call: code that expands
    many groups builds one :class:`StarPlan` and keeps it.
    """
    return StarPlan(star).expand(group, fixed)


def joined_solutions(
    stars: tuple[StarPattern, ...],
    joined: JoinedTripleGroup,
    star_indices: dict[int, int] | None = None,
) -> list[dict[Variable, Term]]:
    """Solution mappings of a multi-star pattern against a joined TG.

    *star_indices* maps positions in *stars* to component indices of the
    joined triplegroup (identity when omitted).  Compiles the pattern on
    every call: code that expands many records builds one
    :class:`JoinPlan` and keeps it.
    """
    components = None
    if star_indices is not None:
        components = [star_indices[position] for position in range(len(stars))]
    return JoinPlan(stars, components).expand(joined)
