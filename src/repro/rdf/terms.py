"""RDF term types: IRIs, literals, blank nodes, and query variables.

Terms are immutable, hashable value objects.  Literals carry an optional
datatype IRI or language tag and expose a :meth:`Literal.python_value`
conversion used by SPARQL expression evaluation and aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import RDFError

#: Hidden per-instance cache slot: the one memo idiom of every frozen,
#: slotted record type (the terms below, triples, triplegroups, factorized
#: relations, aggregated rows).  They are immutable value objects, so derived
#: values (serialized-size estimates, interned sort keys, property-key sets)
#: are computed once and pinned to the instance with ``object.__setattr__``;
#: the field is excluded from __init__/__repr__/__eq__/__hash__ so the
#: public value semantics are unchanged.  See docs/performance.md.
def cache_slot():
    return field(default=None, init=False, repr=False, compare=False)

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_STRING = XSD + "string"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        XSD + "float",
        XSD + "long",
        XSD + "int",
        XSD + "short",
        XSD + "byte",
        XSD + "nonNegativeInteger",
        XSD + "positiveInteger",
    }
)


@dataclass(frozen=True, slots=True)
class IRI:
    """An IRI reference, e.g. ``IRI("http://example.org/p1")``."""

    value: str
    _size: int | None = cache_slot()
    _skey: tuple | None = cache_slot()
    _hash: int | None = cache_slot()

    def __post_init__(self) -> None:
        if not self.value:
            raise RDFError("IRI value must be a non-empty string")

    def n3(self) -> str:
        """Render in N-Triples / SPARQL surface syntax."""
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Heuristic local part: text after the last '#' or '/'."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def __str__(self) -> str:
        return self.n3()


@dataclass(frozen=True, slots=True)
class BNode:
    """A blank node with a local label, e.g. ``BNode("b0")``."""

    label: str
    _size: int | None = cache_slot()
    _skey: tuple | None = cache_slot()
    _hash: int | None = cache_slot()

    def __post_init__(self) -> None:
        if not self.label:
            raise RDFError("BNode label must be a non-empty string")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return self.n3()


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with optional datatype or language tag.

    Exactly one of ``datatype`` / ``language`` may be set.  Plain literals
    (neither set) behave as simple strings.
    """

    lexical: str
    datatype: str | None = None
    language: str | None = None
    _size: int | None = cache_slot()
    _skey: tuple | None = cache_slot()
    _hash: int | None = cache_slot()
    _value: int | float | bool | str | None = cache_slot()

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise RDFError("a literal cannot have both a datatype and a language tag")

    @classmethod
    def from_python(cls, value: Union[int, float, bool, str]) -> "Literal":
        """Build a typed literal from a native Python value."""
        if isinstance(value, bool):
            return cls("true" if value else "false", datatype=XSD_BOOLEAN)
        if isinstance(value, int):
            return cls(str(value), datatype=XSD_INTEGER)
        if isinstance(value, float):
            return cls(repr(value), datatype=XSD_DOUBLE)
        if isinstance(value, str):
            return cls(value)
        raise RDFError(f"cannot convert {type(value).__name__} to an RDF literal")

    def python_value(self) -> Union[int, float, bool, str]:
        """Convert to the closest native Python value, parsed once and
        pinned like the hash (a lexical form that does not parse under
        the declared datatype raises :class:`RDFError`, every time)."""
        value = self._value
        if value is None:
            value = self._parse()
            object.__setattr__(self, "_value", value)
        return value

    def _parse(self) -> Union[int, float, bool, str]:
        if self.datatype == XSD_BOOLEAN:
            if self.lexical in ("true", "1"):
                return True
            if self.lexical in ("false", "0"):
                return False
            raise RDFError(f"invalid xsd:boolean lexical form: {self.lexical!r}")
        if self.datatype == XSD_INTEGER or (
            self.datatype in _NUMERIC_DATATYPES and self.datatype not in (XSD_DOUBLE, XSD_DECIMAL)
        ):
            try:
                return int(self.lexical)
            except ValueError as exc:
                raise RDFError(f"invalid integer lexical form: {self.lexical!r}") from exc
        if self.datatype in (XSD_DOUBLE, XSD_DECIMAL, XSD + "float"):
            try:
                return float(self.lexical)
            except ValueError as exc:
                raise RDFError(f"invalid numeric lexical form: {self.lexical!r}") from exc
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.datatype is not None:
            return f'"{escaped}"^^<{self.datatype}>'
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        return f'"{escaped}"'

    def __str__(self) -> str:
        return self.n3()


@dataclass(frozen=True, slots=True)
class Variable:
    """A SPARQL query variable, e.g. ``Variable("price")`` for ``?price``."""

    name: str
    _skey: tuple | None = cache_slot()
    _hash: int | None = cache_slot()

    def __post_init__(self) -> None:
        if not self.name:
            raise RDFError("variable name must be non-empty")
        if self.name.startswith("?") or self.name.startswith("$"):
            raise RDFError("variable name must not include the '?'/'$' sigil")

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.n3()


# -- memoized hashing ---------------------------------------------------------
#
# Terms are hashed constantly: graph indexes, VP-table grouping, shuffle
# key grouping, and solution dicts all key on them.  The dataclass-
# generated __hash__ rebuilds a field tuple on every call; the overrides
# below compute the same value once and pin it in the ``_hash`` slot.
# Hash values are identical to the generated implementation's, and
# nothing in the simulator iterates in hash order (the graph and all
# grouping dicts are insertion-ordered), so simulated output cannot
# change.  Assigned after the class bodies because @dataclass(frozen=True)
# installs its generated __hash__ over anything defined inline.


def _iri_hash(self: IRI) -> int:
    value = self._hash
    if value is None:
        value = hash((self.value,))
        object.__setattr__(self, "_hash", value)
    return value


def _bnode_hash(self: BNode) -> int:
    value = self._hash
    if value is None:
        value = hash((self.label,))
        object.__setattr__(self, "_hash", value)
    return value


def _literal_hash(self: Literal) -> int:
    value = self._hash
    if value is None:
        value = hash((self.lexical, self.datatype, self.language))
        object.__setattr__(self, "_hash", value)
    return value


def _variable_hash(self: Variable) -> int:
    value = self._hash
    if value is None:
        value = hash((self.name,))
        object.__setattr__(self, "_hash", value)
    return value


IRI.__hash__ = _iri_hash
BNode.__hash__ = _bnode_hash
Literal.__hash__ = _literal_hash
Variable.__hash__ = _variable_hash


# A concrete RDF term (something that can appear in data).
Term = Union[IRI, BNode, Literal]
# A term or variable (something that can appear in a triple pattern).
TermOrVar = Union[IRI, BNode, Literal, Variable]


def is_concrete(term: TermOrVar) -> bool:
    """True when *term* is a data term rather than a variable."""
    return not isinstance(term, Variable)


def term_sort_key(term: Term) -> tuple:
    """A deterministic ordering key across heterogeneous term types.

    Used for reproducible output ordering in reports and serializers;
    the order itself (IRIs, then bnodes, then literals) is arbitrary but
    stable.
    """
    if isinstance(term, IRI):
        return (0, term.value)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, term.lexical, term.datatype or "", term.language or "")
    raise RDFError(f"not a concrete RDF term: {term!r}")


def term_interned_sort_key(term: TermOrVar) -> tuple[str, str]:
    """A cached shuffle-ordering key: ``(type name, repr(term))``.

    This is exactly the key the runner historically rebuilt for every
    comparison pass; interning it on the immutable term means a term
    appearing in many sorts pays the (slow) dataclass ``repr`` once.
    Because the key *is* the historical key, reduce and map-side fold
    output order — and with it every simulated counter and result row — is
    provably unchanged.  Component-tuple keys (as in
    :func:`term_sort_key`) would not be safe here: repr-string ordering
    differs from component ordering whenever a value contains characters
    below the quote delimiter (e.g. ``#`` in IRIs).
    """
    key = term._skey
    if key is None:
        key = (type(term).__name__, repr(term))
        object.__setattr__(term, "_skey", key)
    return key
