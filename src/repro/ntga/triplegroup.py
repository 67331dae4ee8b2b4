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

from repro.core.query_model import PropKey, StarPattern, prop_key, prop_key_of
from repro.errors import ReproError
from repro.mapreduce import cost
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Variable, cache_slot
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


@dataclass(frozen=True, slots=True)
class TripleGroup:
    """Triples sharing one subject."""

    subject: Term
    triples: tuple[Triple, ...]
    # Memos, pinned on first use (``object.__setattr__``); the last is
    # :meth:`FactorizedRelation.from_triplegroup`'s, kept on its source.
    _props: frozenset | None = cache_slot()
    _objects: dict | None = cache_slot()
    _projections: dict | None = cache_slot()
    _size: int | None = cache_slot()
    _fsize: int | None = cache_slot()
    _factorized: dict | None = cache_slot()

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
            cached = self._props
            if cached is not None:
                return cached
        keys = set()
        for triple in self.triples:
            if triple.property == RDF_TYPE:
                keys.add(prop_key(triple.property, triple.object))
            else:
                keys.add(prop_key(triple.property))
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
            cache = self._objects
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
            cache = self._projections
            if cache is None:
                cache = {}
                object.__setattr__(self, "_projections", cache)
            projected = cache.get(keys)
            if projected is None:
                projected = self._compute_projection(keys)
                cache[keys] = projected
            return projected
        return self._compute_projection(keys)

    def _compute_projection(self, keys: frozenset[PropKey]) -> "TripleGroup":
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
            cached = self._size
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
            cached = self._fsize
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


@dataclass(frozen=True, slots=True)
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
    _props: frozenset | None = cache_slot()
    _size: int | None = cache_slot()

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
            cached = self._props
            if cached is not None:
                return cached
        keys: frozenset[PropKey] = frozenset()
        for _, group in self.components:
            keys |= group.props()
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_props", keys)
        return keys

    def merge(
        self, other: "JoinedTripleGroup", extra_fixed: Iterable[tuple[Variable, Term]] = ()
    ) -> "JoinedTripleGroup":
        return JoinedTripleGroup(
            self.components + other.components,
            tuple(dict(self.fixed + other.fixed + tuple(extra_fixed)).items()),
        )

    def estimated_size(self) -> int:
        if cost.SIZE_CACHE_ENABLED:
            cached = self._size
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


def subject_groups(graph: Graph) -> list[TripleGroup]:
    """*graph*'s subject triplegroups, grouped once per graph version: the
    one list the NTGA layout buckets and the shard partitioner weighs."""
    return graph.derived(("ntga.subject_groups",), lambda: group_by_subject(graph))


def equivalence_class(group: TripleGroup) -> frozenset:
    """The storage equivalence class: the set of property IRIs."""
    return frozenset(t.property for t in group.triples)


# ---------------------------------------------------------------------------
# Binding expansion: compiled once per plan, run once per record
# ---------------------------------------------------------------------------
#
# Everything about a pattern that is fixed per plan -- its property keys,
# which of them are OPTIONAL, which objects are variables and where each
# variable sits in a solution, whether a variable can already be bound
# when a step reaches it, where each key's column sits in a factorized
# schema, which component of a joined record a star reads -- is resolved
# when the plan is compiled.  Per record the step loop only indexes.
#
# A solution is a **row**: a ``list[Term | None]`` with one position (a
# *slot*) per variable of the pattern, ``None`` where the variable is
# unbound (a skipped OPTIONAL).  ``slots`` maps each variable to its
# position; nothing at record time hashes a ``Variable``.


class StarPlan:
    """One star pattern compiled for expansion against triplegroups.

    *slots* is the row layout of the whole pattern, shared by its stars
    and extended here with this star's variables in pattern order (so
    numbering never depends on set iteration).  ``steps`` holds one
    tuple per triple pattern, in pattern order::

        (column, only, key, optional, slot, object, repeated, plain)

    ``column`` / ``only`` place the key in a factorized schema (see
    :meth:`_bind`); in the schema-less ``steps`` they are ``-1`` /
    ``None`` and the step probes ``objects_for(key)``.  ``slot`` is the
    object variable's position in a row, ``-1`` for a concrete
    ``object``; ``repeated`` marks a variable a row may already bind
    when the step runs (the subject, an earlier object, or a variable of
    an earlier star of the pattern); ``plain`` marks a concrete object
    that is looked up by equality (a type-qualified key's candidates are
    already the matching class).
    """

    __slots__ = ("subject_slot", "subject_term", "subject_repeated", "steps", "_bound")

    def __init__(self, star: StarPattern, slots: dict[Variable, int]):
        subject = star.subject
        if isinstance(subject, Variable):
            self.subject_repeated = subject in slots
            self.subject_slot = slots.setdefault(subject, len(slots))
            self.subject_term = None
        else:
            self.subject_repeated = False
            self.subject_slot = -1
            self.subject_term = subject
        steps = []
        for pattern in star.patterns:
            key = prop_key_of(pattern)
            optional = key in star.optional_props
            obj = pattern.object
            slot, repeated = -1, False
            if isinstance(obj, Variable):
                repeated = obj in slots
                slot = slots.setdefault(obj, len(slots))
            elif optional:
                continue  # an OPTIONAL concrete object neither binds nor rejects
            steps.append((-1, None, key, optional, slot, obj, repeated, key.type_object is None))
        self.steps = tuple(steps)
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

    def expand(self, group: "TripleGroup", rows: list[list], base: list) -> list[list]:
        """Extend every row of *rows* to the solutions of the star
        against *group*, in BGP expansion order (the first pattern
        varies slowest; the given rows slower still).

        *base* is the row the expansion started from -- nothing but the
        ``fixed`` join bindings, which restrict the star: every row
        already holds them.  Rows are written in place whenever a step
        has one candidate for a variable; a row is copied only on real
        fanout.  The rows passed in belong to the call.
        """
        subject = group.subject
        slot = self.subject_slot
        if slot < 0:
            if self.subject_term != subject:
                return []
        elif base[slot] is not None:
            if base[slot] != subject:
                return []
        else:
            if self.subject_repeated:  # an earlier star may have bound it, row by row
                rows = [row for row in rows if row[slot] is None or row[slot] == subject]
                if not rows:
                    return []
            for row in rows:
                row[slot] = subject

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

        for column, only, key, optional, slot, obj, repeated, plain in steps:
            if columns is None:
                candidates = objects_for(key)
            elif column < 0:
                candidates = ()
            else:
                candidates = columns[column]
                if only is not None:
                    candidates = tuple(c for c in candidates if c == only)
            if slot < 0:
                if (obj not in candidates) if plain else (not candidates):
                    return []
                continue
            required = base[slot]
            if required is not None:
                candidates = tuple(c for c in candidates if c == required)
            if not candidates:
                if optional:
                    continue  # left-join semantics: the slot stays as it is
                return []
            if repeated:
                if required is not None:
                    continue  # a fixed binding: every row holds it already
                # Bound already -- or not, after a skipped OPTIONAL:
                # decided row by row.
                checked = []
                for row in rows:
                    bound = row[slot]
                    if bound is None:
                        for candidate in candidates:
                            copy = row[:]
                            copy[slot] = candidate
                            checked.append(copy)
                    elif bound in candidates:
                        checked.append(row)
                if not checked:
                    return []
                rows = checked
            elif len(candidates) == 1:
                candidate = candidates[0]
                for row in rows:
                    row[slot] = candidate
            else:
                fanned = []
                for row in rows:
                    for candidate in candidates:
                        copy = row[:]
                        copy[slot] = candidate
                        fanned.append(copy)
                rows = fanned
        return rows


class JoinPlan:
    """A multi-star pattern compiled for expansion against joined
    triplegroups: one :class:`StarPlan` per star beside the component
    index it reads (*components*, star positions when omitted), over one
    row layout, ``slots``.

    The stars expand one after the other into the same rows, so a
    variable two stars share is the later star's *repeated* variable: no
    product of per-star expansions is built and nothing is merged.
    """

    __slots__ = ("stars", "slots", "_positions", "_fixed_variables", "_fixed_slots")

    def __init__(
        self,
        stars: Sequence[StarPattern],
        components: Sequence[int] | None = None,
    ):
        #: variable -> position in a row, in first-mention order.
        self.slots: dict[Variable, int] = {}
        plans = [StarPlan(star, self.slots) for star in stars]
        if components is None:
            components = range(len(plans))
        self.stars = tuple(zip(components, plans, strict=True))
        #: Where each star's component sat in the last record's
        #: ``components`` (a guess until the first record corrects it).
        self._positions = list(components)
        #: The ``fixed`` variables of the last record and their slots
        #: (-1: no star mentions it).  A job's records share one layout
        #: -- the same ``Variable`` objects in the same order -- so the
        #: steady state compares identities and hashes nothing.
        self._fixed_variables: tuple[Variable, ...] = ()
        self._fixed_slots: tuple[int, ...] = ()

    def slot(self, variable: Variable) -> int:
        """The position of *variable* in this plan's rows.  A variable no
        star binds gets a position of its own, which stays ``None``."""
        return self.slots.setdefault(variable, len(self.slots))

    def _locate(self, components: tuple, star: int, component_index: int) -> int:
        for position, (index, _) in enumerate(components):
            if index == component_index:
                self._positions[star] = position
                return position
        return -1

    def expand(self, joined: JoinedTripleGroup) -> list[list]:
        """Solution rows of the pattern against *joined*.

        Components not covered by a star are ignored -- this is how an
        original graph pattern is expanded from a composite match
        without inheriting the other pattern's multiplicity.
        """
        base = [None] * len(self.slots)
        fixed = joined.fixed
        if fixed:
            variables = tuple([variable for variable, _ in fixed])
            if variables != self._fixed_variables:  # identical elements compare by identity
                self._fixed_variables = variables
                self._fixed_slots = tuple(self.slots.get(v, -1) for v in variables)
            for slot, (_, term) in zip(self._fixed_slots, fixed):
                if slot >= 0:
                    base[slot] = term
        components = joined.components
        positions = self._positions
        rows = [base[:]]
        for star, (component_index, plan) in enumerate(self.stars):
            position = positions[star]
            if position >= len(components) or components[position][0] != component_index:
                position = self._locate(components, star, component_index)
                if position < 0:
                    return []
            rows = plan.expand(components[position][1], rows, base)
            if not rows:
                return []
        return rows

    def solutions(self, joined: JoinedTripleGroup) -> list[dict[Variable, Term]]:
        """:meth:`expand`, decoded: one mapping per row -- its bound
        slots, plus the ``fixed`` bindings the pattern never mentions
        (no slot carries them)."""
        layout = tuple(self.slots.items())
        solutions = [
            {variable: row[slot] for variable, slot in layout if row[slot] is not None}
            for row in self.expand(joined)
        ]
        for variable, term in joined.fixed:
            if variable not in self.slots:
                for solution in solutions:
                    solution[variable] = term
        return solutions


def star_solutions(
    star: StarPattern,
    group: TripleGroup,
    fixed: dict[Variable, Term] | None = None,
) -> list[dict[Variable, Term]]:
    """All solution mappings of *star* against one triplegroup.

    Multi-valued properties expand by cross product, exactly as SPARQL
    BGP semantics requires; ``fixed`` bindings (join choices) restrict
    the expansion and appear in every solution.  Compiles the star on
    every call: code that expands many groups builds one
    :class:`JoinPlan` and keeps it.
    """
    fixed = tuple(fixed.items()) if fixed else ()
    return JoinPlan((star,)).solutions(JoinedTripleGroup.single(0, group, fixed))


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
    return JoinPlan(stars, components).solutions(joined)
