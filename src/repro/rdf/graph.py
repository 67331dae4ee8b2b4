"""An in-memory, indexed RDF graph.

The graph is an insertion-ordered set of triples with three hash indexes
(SPO, POS, OSP), so that any triple-pattern lookup touches only matching
candidates.  The indexes are derived state: they are built on the first
index read (:meth:`Graph.walk`, :meth:`Graph.properties`,
:meth:`Graph.property_counts`) and maintained by every mutation after
it.  Only the reference SPARQL evaluator reads them; the engines derive
their physical layouts (vertically partitioned tables for Hive, subject
triplegroups for NTGA) from the triples alone, so a graph they run over
never pays for its indexes.

Those layouts, and everything else computed once per triple set, live
in the graph's own memo (:meth:`Graph.derived`): emptied by every
mutation and, holding nothing that refers back to the graph, freed with
it by reference count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, TypeVar

from repro.rdf.terms import IRI, Term, Variable
from repro.rdf.triples import Triple, TriplePattern

T = TypeVar("T")


class Graph:
    """A set of triples with SPO/POS/OSP indexes, built on first read.

    >>> g = Graph()
    >>> _ = g.add(Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o")))
    >>> len(g)
    1
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        # Triples and index entries live in insertion-ordered dicts (the
        # values are unused), NOT sets: iteration order must be a function
        # of the data, never of PYTHONHASHSEED, because load order reaches
        # the engines' physical layouts and from there every simulated
        # counter.  Same O(1) membership/insert/delete as a set.
        self._triples: dict[Triple, None] = dict.fromkeys(triples)
        #: Monotonic mutation counter; see :attr:`version`.
        self._version = len(self._triples)
        #: What :meth:`derived` built for the current version, by key.
        self._derived: dict[tuple, object] = {}
        #: SPO/POS/OSP, or None until the first index read (see _indexes).
        self._spo: _Index | None = None
        self._pos: _Index | None = None
        self._osp: _Index | None = None

    def _indexes(self) -> tuple[_Index, _Index, _Index]:
        """SPO/POS/OSP, built from the triple dict on first use.  Built in
        insertion order, they equal what maintaining them from the first
        ``add`` would have left, provided no triple was removed before:
        :meth:`discard` builds them first (a build after a removal would
        put a property whose first triple went behind later ones)."""
        if self._spo is None:
            self._spo, self._pos, self._osp = _new_index(), _new_index(), _new_index()
            for triple in self._triples:
                self._index(triple)
        return self._spo, self._pos, self._osp

    def _index(self, triple: Triple) -> None:
        s, p, o = triple.subject, triple.property, triple.object
        self._spo[s][p][o] = None
        self._pos[p][o][s] = None
        self._osp[o][s][p] = None

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._version += 1
        if self._derived:
            self._derived.clear()
        if self._spo is not None:
            self._index(triple)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added."""
        return sum(1 for triple in triples if self.add(triple))

    def discard(self, triple: Triple) -> bool:
        """Remove a triple; returns False when it was not present."""
        if triple not in self._triples:
            return False
        spo, pos, osp = self._indexes()
        del self._triples[triple]
        self._version += 1
        self._derived.clear()
        s, p, o = triple.subject, triple.property, triple.object
        _unindex(spo, s, p, o)
        _unindex(pos, p, o, s)
        _unindex(osp, o, s, p)
        return True

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the triple set changes."""
        return self._version

    def derived(self, key: tuple, build: Callable[[], T]) -> T:
        """The value *build* computes from this graph's triples: built on
        the first lookup of *key*, shared by every later one until the
        triple set changes.  The engines' layouts, the partitions and the
        planner's statistics live here.  *key* is a plain tuple and the
        value must not refer to the graph, so the memo dies with the graph
        by reference count, never through the collector."""
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples(
        self,
        subject: Term | None = None,
        property: Term | None = None,
        object: Term | None = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the given concrete components.

        ``None`` means "any".  The most selective available index is
        chosen based on which components are bound (see :meth:`walk`).
        """
        for s, p, o in self.walk(subject, property, object):
            yield Triple(s, p, o)

    def walk(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> Iterator[tuple[Term, Term, Term]]:
        """The index walk behind :meth:`triples`: raw ``(s, p, o)`` tuples,
        no :class:`Triple` built.  SPO when *s* is given, else POS when *p*
        is, else OSP when *o* is, else every triple; each in insertion order."""
        if self._spo is None:
            self._indexes()
        if s is not None:
            by_property = self._spo.get(s)
            if not by_property:
                return
            properties = (p,) if p is not None else by_property
            for prop in properties:
                for obj in by_property.get(prop, ()):
                    if o is None or obj == o:
                        yield s, prop, obj
        elif p is not None:
            by_object = self._pos.get(p)
            if not by_object:
                return
            objects = (o,) if o is not None else by_object
            for obj in objects:
                for subj in by_object.get(obj, ()):
                    yield subj, p, obj
        elif o is not None:
            by_subject = self._osp.get(o)
            if not by_subject:
                return
            for subj, props in by_subject.items():
                for prop in props:
                    yield subj, prop, o
        else:
            for triple in self._triples:
                yield triple.subject, triple.property, triple.object

    def match(self, pattern: TriplePattern) -> Iterator[dict[Variable, Term]]:
        """All variable bindings under which *pattern* matches the graph;
        a variable repeated in *pattern* must match the same term."""
        lookup = [None if isinstance(c, Variable) else c for c in pattern]
        for terms in self.walk(*lookup):
            bindings: dict[Variable, Term] = {}
            for component, term in zip(pattern, terms):
                if isinstance(component, Variable):
                    if bindings.setdefault(component, term) != term:
                        break
            else:
                yield bindings

    def subjects(self, property: Term | None = None, object: Term | None = None) -> set[Term]:
        return {s for s, _, _ in self.walk(None, property, object)}

    def objects(self, subject: Term | None = None, property: Term | None = None) -> set[Term]:
        return {o for _, _, o in self.walk(subject, property, None)}

    def properties(self) -> set[IRI]:
        """All distinct property IRIs in the graph."""
        return {p for p in self._indexes()[1] if isinstance(p, IRI)}

    def property_counts(self) -> dict[IRI, int]:
        """Triple count per property — the VP table sizes for Hive."""
        counts: dict[IRI, int] = {}
        for prop, by_object in self._indexes()[1].items():
            if isinstance(prop, IRI):
                counts[prop] = sum(len(subjects) for subjects in by_object.values())
        return counts

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"


_Index = dict[Term, dict[Term, dict[Term, None]]]


def _new_index() -> _Index:
    return defaultdict(lambda: defaultdict(dict))


def _unindex(index: dict, a: Term, b: Term, c: Term) -> None:
    """Remove ``index[a][b][c]``, pruning the levels it leaves empty."""
    inner = index[a]
    del inner[b][c]
    if not inner[b]:
        del inner[b]
        if not inner:
            del index[a]
