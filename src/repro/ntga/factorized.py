"""Factorized answer representation for the NTGA hot path.

Shuffle and materialization bytes dominate the simulated cost model, yet
the classic triplegroup encoding still spells out the property IRI of
every triple and re-ships join bindings that the shuffle key already
carries.  This module keeps star-structured answer sets *factorized*
instead (Abul-Basher et al., "Answer Graph: Factorization Matters in
Large Graphs"):

* :class:`FactorizedRelation` — one star match as (root, branch-columns)
  factors: the subject once, plus one object column per property key of
  an interned :class:`StarSchema`.  Property names live in the schema (a
  plan constant shared by every record of the job), so the per-record
  bytes shrink to the subject plus the object values — a large win
  exactly on the skewed, high-fanout MG-class stars;
* :class:`RowFactor` — a final/split-join output kept as (base row ×
  per-subquery candidate rows) factors with lazy cartesian enumeration,
  flattened only at answer delivery.

Results are bit-identical to flat execution by construction: both
classes reproduce the flat operators' exact iteration order (schema key
order for row layout, column/triple order for value choices, the final
join's nested-loop order for row order), and the engines only ever
*add* factorization behind the representation knob — the ``"flat"``
mode is byte-for-byte the previous behavior.

The representation choice is the ``representation`` knob of
:mod:`repro.ambient` (DESIGN.md §7.5): :func:`active_representation`
installs an ambient override so a harness can A/B entire
executions, while :class:`repro.core.results.EngineConfig`
carries an explicit per-execution value for the serving layer.
``"auto"`` defers to
:meth:`repro.mapreduce.cost.CostModel.choose_representation` priced on
the store's flat-vs-factorized byte totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro import ambient, obs
from repro.ambient import REPRESENTATION
from repro.core.query_model import PropKey, prop_key
from repro.mapreduce import cost
from repro.rdf.terms import Term, Variable, cache_slot
from repro.rdf.triples import RDF_TYPE

if TYPE_CHECKING:
    from repro.mapreduce.cost import CostModel
    from repro.ntga.physical import TripleGroupStore
    from repro.ntga.triplegroup import TripleGroup

#: The trace metrics this subsystem records (see the operator metric
#: glossary in ``docs/observability.md``; the docs inventory test keys
#: off this tuple).
FACTORIZED_COUNTERS = (
    "factorized_relations",
    "factorized_bytes_saved",
    "enumeration_rows",
)


#: The knob is a row of the table: ``validate`` strips and lower-cases,
#: or raises a one-line :class:`ReproError`; ``resolve`` is explicit
#: config > ambient context > default and may return ``"auto"``, which
#: planners resolve against the store via :func:`plan_representation`.
REPRESENTATIONS = REPRESENTATION.choices
DEFAULT_REPRESENTATION = REPRESENTATION.default
validate_representation = REPRESENTATION.validate
resolve_representation = REPRESENTATION.resolve


def active_representation(mode: str, cost_model: "CostModel | None" = None):
    """Set the ambient representation (and pricing model) for the
    duration — the knob the engines and the A/B harnesses use to run
    whole executions factorized or flat."""
    return ambient.installed(
        representation=validate_representation(mode), cost_model=cost_model
    )


def plan_representation(
    store: "TripleGroupStore", explicit: str | None = None
) -> str:
    """The representation a plan should use: resolves ``"auto"`` by
    pricing the store's flat-vs-factorized byte totals with the ambient
    cost model (see :meth:`CostModel.choose_representation`)."""
    mode = resolve_representation(explicit)
    if mode != "auto":
        return mode
    model = ambient.cost_model
    if model is None:
        from repro.mapreduce.cost import CostModel

        model = CostModel()
    chosen = model.choose_representation(
        flat_bytes=store.flat_bytes, factorized_bytes=store.factorized_bytes
    )
    obs.event(
        "representation",
        {
            "requested": "auto",
            "chosen": chosen,
            "flat_bytes": store.flat_bytes,
            "factorized_bytes": store.factorized_bytes,
        },
    )
    return chosen


# ---------------------------------------------------------------------------
# Star schemas (interned plan constants)
# ---------------------------------------------------------------------------


def _schema_sort_key(key: PropKey) -> tuple[str, str]:
    type_object = key.type_object
    return (
        key.property.value,
        "" if type_object is None else type_object.n3(),
    )


@dataclass(frozen=True, slots=True, eq=False)
class StarSchema:
    """The ordered property keys of one composite star.

    Interned via :func:`schema_for` (one instance per key set per
    process), so records of a job share it and its byte cost is plan
    metadata, not per-record payload — the heart of the factorization
    win.  Key order is deterministic (property IRI, then type object),
    fixing the enumeration layout.  Because schemas are interned,
    identity is equality (``eq=False``): the per-record memo probes
    keyed by a schema hash a pointer, not every key's IRI.
    """

    keys: tuple[PropKey, ...]
    _index: dict | None = cache_slot()

    def position(self, key: PropKey) -> int | None:
        index = self._index if cost.SIZE_CACHE_ENABLED else None
        if index is None:
            index = {key: position for position, key in enumerate(self.keys)}
            if cost.SIZE_CACHE_ENABLED:
                object.__setattr__(self, "_index", index)
        return index.get(key)

    def column_for(self, key: PropKey) -> tuple[int, Term | None]:
        """Where *key*'s object values sit: ``(column, only)``.

        ``column`` is the position of the key's own column, or of the
        plain ``rdf:type`` column a type-qualified key falls back to --
        then ``only`` is the class to keep from it (triple order
        preserved, as a triplegroup would answer) -- or ``-1`` when the
        schema holds neither.
        """
        position = self.position(key)
        if position is not None:
            return position, None
        if key.type_object is not None:
            plain = self.position(prop_key(key.property))
            if plain is not None:
                return plain, key.type_object
        return -1, None


@lru_cache(maxsize=None)
def schema_for(keys: frozenset) -> StarSchema:
    """The interned schema for a property-key set, over interned keys
    (a caller may probe with keys it built by hand)."""
    interned = [prop_key(key.property, key.type_object) for key in keys]
    return StarSchema(tuple(sorted(interned, key=_schema_sort_key)))


# ---------------------------------------------------------------------------
# FactorizedRelation: one star match as (root, branch columns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FactorizedRelation:
    """A star match kept as columns instead of triples.

    Duck-types the :class:`~repro.ntga.triplegroup.TripleGroup` surface
    the NTGA operators consume (``subject`` / ``props()`` /
    ``objects_for()`` / ``project()`` / ``estimated_size()``), so joined
    triplegroups carry factorized components through α-joins and the
    Agg-Join without any operator change.  Column order preserves the
    source group's triple order, which is what keeps expansion
    (:func:`~repro.ntga.triplegroup.star_solutions`) bit-identical.
    """

    subject: Term
    schema: StarSchema
    columns: tuple[tuple[Term, ...], ...]
    _props: frozenset | None = cache_slot()
    _projections: dict | None = cache_slot()
    _size: int | None = cache_slot()

    @classmethod
    def from_triplegroup(
        cls, group: "TripleGroup", schema: StarSchema
    ) -> "FactorizedRelation":
        """Factorize one (already projected) triplegroup.

        Memoized per (group, schema) on the source group — stored groups
        outlive an execution, and every job re-filters the same groups.
        """
        if cost.SIZE_CACHE_ENABLED:
            cache = group._factorized
            if cache is None:
                cache = {}
                object.__setattr__(group, "_factorized", cache)
            fact = cache.get(schema)
            if fact is None:
                fact = cls(
                    group.subject,
                    schema,
                    tuple(group.objects_for(key) for key in schema.keys),
                )
                cache[schema] = fact
            return fact
        return cls(
            group.subject,
            schema,
            tuple(group.objects_for(key) for key in schema.keys),
        )

    def props(self) -> frozenset[PropKey]:
        """Present property keys, exactly as the equivalent triplegroup
        reports them: a plain ``rdf:type`` column contributes one
        type-qualified key per distinct class value."""
        if cost.SIZE_CACHE_ENABLED:
            cached = self._props
            if cached is not None:
                return cached
        keys = set()
        for key, column in zip(self.schema.keys, self.columns):
            if not column:
                continue
            if key.type_object is None and key.property == RDF_TYPE:
                for value in column:
                    keys.add(prop_key(key.property, value))
            else:
                keys.add(key)
        result = frozenset(keys)
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_props", result)
        return result

    def objects_for(self, key: PropKey) -> tuple[Term, ...]:
        position = self.schema.position(key)
        if position is not None:
            return self.columns[position]
        # Not a column of its own: a type-qualified probe filters the
        # plain rdf:type column (TripleGroup semantics), anything else
        # is absent.
        column, only = self.schema.column_for(key)
        if column < 0:
            return ()
        return tuple(value for value in self.columns[column] if value == only)

    def project(self, keys: frozenset[PropKey]) -> "FactorizedRelation":
        """Keep only the named keys (columns absent from the schema
        project to empty, as a triplegroup projection would drop them)."""
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

    def _compute_projection(self, keys: frozenset[PropKey]) -> "FactorizedRelation":
        schema = schema_for(frozenset(keys))
        return FactorizedRelation(
            self.subject,
            schema,
            tuple(self.objects_for(key) for key in schema.keys),
        )

    def estimated_size(self) -> int:
        """Serialized size of the factorized encoding.

        The subject once, then per non-empty column a 1-byte column
        marker plus each value with a 1-byte separator.  Property names
        are schema (plan) metadata and cost nothing per record.  At
        fanout ≤ 1 everywhere this equals :meth:`flat_size` exactly;
        any fanout ≥ 2 makes it strictly smaller (the property test in
        ``tests/ntga/test_factorized.py`` pins both directions).
        """
        if cost.SIZE_CACHE_ENABLED:
            cached = self._size
            if cached is not None:
                return cached
        estimate_size = cost.estimate_size
        size = estimate_size(self.subject) + 4
        for column in self.columns:
            if column:
                size += 1
                for value in column:
                    size += estimate_size(value) + 1
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size

    def flat_size(self) -> int:
        """Serialized size of the fully-enumerated flat rows this factor
        stands for: the cartesian product re-spells the subject per row
        and each column value once per row it appears in."""
        estimate_size = cost.estimate_size
        rows = 1
        for column in self.columns:
            if column:
                rows *= len(column)
        size = rows * (estimate_size(self.subject) + 4)
        for column in self.columns:
            if column:
                repeat = rows // len(column)
                size += repeat * sum(
                    estimate_size(value) + 2 for value in column
                )
        return size

    def __len__(self) -> int:
        return sum(len(column) for column in self.columns)


cost.register_estimated_size(FactorizedRelation)


# ---------------------------------------------------------------------------
# RowFactor: factorized final/split-join outputs
# ---------------------------------------------------------------------------


def _compatible(left: dict, right_items: tuple) -> bool:
    for variable, term in right_items:
        existing = left.get(variable)
        if existing is not None and existing != term:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RowFactor:
    """A final-join output kept as (base row × candidate parts).

    The flat TG_Join enumerates ``base ⋈ parts[0] ⋈ parts[1] ⋈ ...`` in
    the mapper and materializes every combination; a RowFactor stores
    the base row plus each remaining subquery's base-compatible
    candidate rows and defers the cartesian enumeration to answer
    delivery (:meth:`rows` reproduces the flat nested-loop order and
    compatibility checks exactly, so delivered answers are
    bit-identical).  This is what keeps ``serve``'s n-split/batch
    outputs factorized until the response is assembled.
    """

    base: tuple[tuple[Variable, Term], ...]
    parts: tuple[tuple[tuple[tuple[Variable, Term], ...], ...], ...] = ()
    _size: int | None = cache_slot()

    def estimated_size(self) -> int:
        if cost.SIZE_CACHE_ENABLED:
            cached = self._size
            if cached is not None:
                return cached
        estimate_size = cost.estimate_size
        size = 8
        for variable, term in self.base:
            size += estimate_size(variable) + estimate_size(term) + 2
        for part in self.parts:
            size += 2
            for row in part:
                size += 2
                for variable, term in row:
                    size += estimate_size(variable) + estimate_size(term) + 2
        if cost.SIZE_CACHE_ENABLED:
            object.__setattr__(self, "_size", size)
        return size

    def rows(self) -> list[dict[Variable, Term]]:
        """Enumerate the flat solution rows.

        Reproduces the flat mapper's loop structure verbatim — for each
        accumulated partial, candidates are probed in part order with
        the same compatibility check, later bindings overwriting equal
        earlier ones — so row order matches flat execution exactly.
        """
        partials: list[dict[Variable, Term]] = [dict(self.base)]
        for part in self.parts:
            partials = [
                {**left, **dict(row)}
                for left in partials
                for row in part
                if _compatible(left, row)
            ]
            if not partials:
                return []
        if ambient.tracer is not None:
            obs.count("enumeration_rows", len(partials))
        return partials


cost.register_estimated_size(RowFactor)
