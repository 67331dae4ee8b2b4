"""An in-memory, indexed RDF graph.

The graph maintains three hash indexes (SPO, POS, OSP) so that any
triple-pattern lookup touches only matching candidates.  It is the
storage substrate for the reference SPARQL evaluator, and the source
from which the engines derive their physical layouts (vertically
partitioned tables for Hive, subject triplegroups for NTGA).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.rdf.terms import IRI, Term, Variable
from repro.rdf.triples import Triple, TriplePattern


class Graph:
    """A set of triples with SPO/POS/OSP indexes.

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
        self._triples: dict[Triple, None] = {}
        #: Monotonic mutation counter.  Derived physical layouts (VP
        #: tables, subject triplegroups) are pure functions of the triple
        #: set; engines cache them keyed on (graph, version) so repeated
        #: executions over an unchanged graph reuse one derivation.
        self._version = 0
        self._spo: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._pos: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._osp: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        for triple in triples:
            self.add(triple)

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._version += 1
        s, p, o = triple.subject, triple.property, triple.object
        self._spo[s][p][o] = None
        self._pos[p][o][s] = None
        self._osp[o][s][p] = None
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added."""
        return sum(1 for triple in triples if self.add(triple))

    def discard(self, triple: Triple) -> bool:
        """Remove a triple; returns False when it was not present."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        self._version += 1
        s, p, o = triple.subject, triple.property, triple.object
        _unindex(self._spo, s, p, o)
        _unindex(self._pos, p, o, s)
        _unindex(self._osp, o, s, p)
        return True

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the triple set changes."""
        return self._version

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
        return {p for p in self._pos if isinstance(p, IRI)}

    def property_counts(self) -> dict[IRI, int]:
        """Triple count per property — the VP table sizes for Hive."""
        counts: dict[IRI, int] = {}
        for prop, by_object in self._pos.items():
            if isinstance(prop, IRI):
                counts[prop] = sum(len(subjects) for subjects in by_object.values())
        return counts

    def subject_grouped(self) -> dict[Term, list[Triple]]:
        """Triples grouped by subject — the NTGA pre-processing layout."""
        grouped: dict[Term, list[Triple]] = defaultdict(list)
        for triple in self._triples:
            grouped[triple.subject].append(triple)
        return dict(grouped)

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"


def _unindex(index: dict, a: Term, b: Term, c: Term) -> None:
    """Remove ``index[a][b][c]``, pruning the levels it leaves empty."""
    inner = index[a]
    del inner[b][c]
    if not inner[b]:
        del inner[b]
        if not inner:
            del index[a]
