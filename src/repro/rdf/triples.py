"""Triples and triple patterns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import RDFError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    TermOrVar,
    Variable,
    cache_slot,
    is_concrete,
)

RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

#: Component roles within a triple, in positional order.
ROLES = ("subject", "property", "object")


@dataclass(frozen=True, slots=True)
class Triple:
    """A concrete RDF triple (subject, property, object)."""

    subject: Term
    property: Term
    object: Term
    #: Lazily-computed serialized-size estimate (see repro.mapreduce.cost)
    #: and memoized hash; hidden from __init__/__repr__/__eq__/__hash__
    #: like the term caches.
    _size: int | None = cache_slot()
    _hash: int | None = cache_slot()

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise RDFError("a triple subject cannot be a literal")
        for component in (self.subject, self.property, self.object):
            if isinstance(component, Variable):
                raise RDFError("a concrete triple cannot contain variables")
        if not isinstance(self.property, IRI):
            raise RDFError("a triple property must be an IRI")

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.property
        yield self.object

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.property.n3()} {self.object.n3()} ."

    def __str__(self) -> str:
        return self.n3()


def _triple_hash(self: Triple) -> int:
    """Memoized hash, identical in value to the dataclass-generated one
    (which would re-hash all three components — each itself a Python-level
    ``__hash__`` call — on every graph-index or grouping-dict lookup)."""
    value = self._hash
    if value is None:
        value = hash((self.subject, self.property, self.object))
        object.__setattr__(self, "_hash", value)
    return value


Triple.__hash__ = _triple_hash


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple with at least one variable (or fully concrete, for ASK-style use).

    Components may be variables or concrete terms.  ``prop`` is the
    paper's ``prop(tp)`` convenience accessor; it returns the concrete
    property IRI or ``None`` for unbound-property patterns (which the
    paper, and this library, exclude from composite optimization).
    """

    subject: TermOrVar
    property: TermOrVar
    object: TermOrVar
    #: Pinned ``variables()`` and, written by
    #: :func:`repro.core.query_model.prop_key_of`, the pattern's property
    #: key.  Hidden like ``Triple``'s slots and, like its hash, pinned
    #: outside ``reference_mode()``'s reach: this layer sits below that
    #: switch, and no simulated counter depends on either value.
    _variables: frozenset[Variable] | None = cache_slot()
    _key: object = cache_slot()

    def __iter__(self) -> Iterator[TermOrVar]:
        yield self.subject
        yield self.property
        yield self.object

    def variables(self) -> frozenset[Variable]:
        """``var(tp)``: the set of variables in this pattern."""
        found = self._variables
        if found is None:
            found = frozenset(c for c in self if isinstance(c, Variable))
            object.__setattr__(self, "_variables", found)
        return found

    def prop(self) -> IRI | None:
        """The bound property IRI, or None when the property is a variable."""
        return self.property if isinstance(self.property, IRI) else None

    def is_rdf_type(self) -> bool:
        return self.property == RDF_TYPE

    def role_of(self, variable: Variable) -> str:
        """``role(?v)``: which component *variable* occupies.

        When the variable appears in several components the subject role
        wins (the paper's star patterns never need the ambiguous case).
        Raises :class:`RDFError` when the variable does not occur at all.
        """
        for role, component in zip(ROLES, self):
            if component == variable:
                return role
        raise RDFError(f"{variable} does not occur in {self}")

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.property.n3()} {self.object.n3()} ."

    def __str__(self) -> str:
        return self.n3()


def join_variables(tp1: TriplePattern, tp2: TriplePattern) -> frozenset[Variable]:
    """Variables shared between two triple patterns (the paper's jv)."""
    return tp1.variables() & tp2.variables()


__all__ = [
    "RDF_TYPE",
    "ROLES",
    "Triple",
    "TriplePattern",
    "join_variables",
    "IRI",
    "BNode",
    "Literal",
    "Variable",
    "is_concrete",
]
