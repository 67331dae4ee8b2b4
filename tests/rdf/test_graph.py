"""Unit tests for the indexed graph."""

import itertools
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern


@pytest.fixture
def graph() -> Graph:
    g = Graph()
    g.add_all(
        [
            Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")),
            Triple(IRI("urn:a"), IRI("urn:p2"), Literal("x")),
            Triple(IRI("urn:b"), IRI("urn:p1"), IRI("urn:c")),
            Triple(IRI("urn:c"), IRI("urn:p2"), Literal("x")),
        ]
    )
    return g


def test_len_and_contains(graph):
    assert len(graph) == 4
    assert Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")) in graph


def test_add_duplicate_returns_false(graph):
    assert not graph.add(Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")))
    assert len(graph) == 4


def test_discard(graph):
    triple = Triple(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b"))
    assert graph.discard(triple)
    assert triple not in graph
    assert not graph.discard(triple)
    # The indexes must be consistent after removal.
    assert list(graph.triples(IRI("urn:a"), IRI("urn:p1"), None)) == []


@pytest.mark.parametrize(
    "lookup,expected_count",
    [
        ((IRI("urn:a"), None, None), 2),
        ((None, IRI("urn:p1"), None), 2),
        ((None, None, Literal("x")), 2),
        ((IRI("urn:a"), IRI("urn:p2"), None), 1),
        ((None, IRI("urn:p1"), IRI("urn:c")), 1),
        ((IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")), 1),
        ((None, None, None), 4),
        ((IRI("urn:zz"), None, None), 0),
        ((None, IRI("urn:zz"), None), 0),
        ((None, None, IRI("urn:zz")), 0),
    ],
)
def test_triples_lookup(graph, lookup, expected_count):
    assert len(list(graph.triples(*lookup))) == expected_count


def test_match_bindings(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:p2"), Variable("o"))
    subjects = {b[Variable("s")] for b in graph.match(pattern)}
    assert subjects == {IRI("urn:a"), IRI("urn:c")}


def test_match_repeated_variable(graph):
    graph2 = graph.copy()
    graph2.add(Triple(IRI("urn:d"), IRI("urn:p1"), IRI("urn:d")))
    pattern = TriplePattern(Variable("x"), IRI("urn:p1"), Variable("x"))
    matches = list(graph2.match(pattern))
    assert matches == [{Variable("x"): IRI("urn:d")}]


def test_match_repeated_variable_consistency():
    s, p, o = IRI("urn:s"), IRI("urn:p"), IRI("urn:o")
    pattern = TriplePattern(Variable("x"), p, Variable("x"))
    assert list(Graph([Triple(s, p, o)]).match(pattern)) == []
    assert list(Graph([Triple(s, p, s)]).match(pattern)) == [{Variable("x"): s}]


def test_match_constant_mismatch(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:zz"), Variable("o"))
    assert list(graph.match(pattern)) == []
    pattern = TriplePattern(IRI("urn:a"), IRI("urn:p1"), IRI("urn:c"))
    assert list(graph.match(pattern)) == []


def test_match_binds_in_component_order(graph):
    pattern = TriplePattern(Variable("s"), IRI("urn:p1"), Variable("o"))
    assert [list(b.items()) for b in graph.match(pattern)] == [
        [(Variable("s"), IRI("urn:a")), (Variable("o"), IRI("urn:b"))],
        [(Variable("s"), IRI("urn:b")), (Variable("o"), IRI("urn:c"))],
    ]


def test_match_constant_components(graph):
    s = Variable("s")
    assert list(graph.match(TriplePattern(s, IRI("urn:p1"), IRI("urn:b")))) == [
        {s: IRI("urn:a")}
    ]
    assert list(graph.match(TriplePattern(s, IRI("urn:p1"), IRI("urn:x")))) == []
    assert list(graph.match(TriplePattern(IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")))) == [{}]


def test_discard_prunes_emptied_index_entries():
    graph = Graph()
    triple = Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))
    graph.add(triple)
    graph.discard(triple)
    assert len(graph) == 0
    assert graph.properties() == set()
    assert graph.property_counts() == {}
    assert graph.subjects() == set() and graph.objects() == set()


def test_walk_yields_raw_components_in_index_order(graph):
    graph.add(Triple(IRI("urn:c"), IRI("urn:p1"), IRI("urn:b")))
    # POS: grouped by object, subjects in insertion order within each.
    assert list(graph.walk(None, IRI("urn:p1"), None)) == [
        (IRI("urn:a"), IRI("urn:p1"), IRI("urn:b")),
        (IRI("urn:c"), IRI("urn:p1"), IRI("urn:b")),
        (IRI("urn:b"), IRI("urn:p1"), IRI("urn:c")),
    ]
    assert list(graph.triples(None, IRI("urn:p1"), None)) == [
        Triple(*terms) for terms in graph.walk(None, IRI("urn:p1"), None)
    ]


def test_subjects_objects_properties(graph):
    assert graph.subjects(IRI("urn:p1")) == {IRI("urn:a"), IRI("urn:b")}
    assert graph.objects(IRI("urn:a")) == {IRI("urn:b"), Literal("x")}
    assert graph.properties() == {IRI("urn:p1"), IRI("urn:p2")}


def test_property_counts(graph):
    assert graph.property_counts() == {IRI("urn:p1"): 2, IRI("urn:p2"): 2}


def test_copy_is_independent(graph):
    clone = graph.copy()
    clone.add(Triple(IRI("urn:z"), IRI("urn:p1"), IRI("urn:z")))
    assert len(clone) == 5
    assert len(graph) == 4


# -- the indexes are built on the first read -----------------------------------


def test_discard_before_the_first_read_keeps_the_index_order():
    """A triple removed before any index read must leave SPO as if it had
    been indexed from the start: ``p1`` was mentioned first, so it stays
    first even though its first triple is gone.  Building the indexes
    after the removal would list ``p2`` first."""
    s, p1, p2 = IRI("urn:s"), IRI("urn:p1"), IRI("urn:p2")
    graph = Graph()
    graph.add_all([Triple(s, p1, IRI("urn:o1")), Triple(s, p2, IRI("urn:o2")), Triple(s, p1, IRI("urn:o3"))])
    graph.discard(Triple(s, p1, IRI("urn:o1")))
    assert list(graph.walk(s, None, None)) == [(s, p1, IRI("urn:o3")), (s, p2, IRI("urn:o2"))]
    assert list(graph) == [Triple(s, p2, IRI("urn:o2")), Triple(s, p1, IRI("urn:o3"))]


def test_indexes_wait_for_the_first_index_read():
    graph = Graph([Triple(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))])
    graph.add(Triple(IRI("urn:s"), IRI("urn:q"), Literal("x")))
    list(graph)
    assert graph._spo is None
    assert graph.properties() == {IRI("urn:p"), IRI("urn:q")}
    assert graph._spo is not None


class _EagerGraph:
    """The model: SPO/POS/OSP filled by every ``add`` from the start, as the
    graph did before its indexes were built on first read."""

    def __init__(self, triples=()):
        self.triples = {}
        self.spo = defaultdict(lambda: defaultdict(dict))
        self.pos = defaultdict(lambda: defaultdict(dict))
        self.osp = defaultdict(lambda: defaultdict(dict))
        for triple in triples:
            self.add(triple)

    def add(self, triple):
        if triple in self.triples:
            return False
        self.triples[triple] = None
        s, p, o = triple
        self.spo[s][p][o] = self.pos[p][o][s] = self.osp[o][s][p] = None
        return True

    def discard(self, triple):
        if triple not in self.triples:
            return False
        del self.triples[triple]
        s, p, o = triple
        for index, (a, b, c) in ((self.spo, (s, p, o)), (self.pos, (p, o, s)), (self.osp, (o, s, p))):
            del index[a][b][c]
            if not index[a][b]:
                del index[a][b]
                if not index[a]:
                    del index[a]
        return True

    def walk(self, s, p, o):
        if s is not None:
            by_property = self.spo.get(s, {})
            for prop in (p,) if p is not None else by_property:
                for obj in by_property.get(prop, ()):
                    if o is None or obj == o:
                        yield s, prop, obj
        elif p is not None:
            by_object = self.pos.get(p, {})
            for obj in (o,) if o is not None else by_object:
                for subj in by_object.get(obj, ()):
                    yield subj, p, obj
        elif o is not None:
            for subj, props in self.osp.get(o, {}).items():
                for prop in props:
                    yield subj, prop, o
        else:
            yield from (tuple(triple) for triple in self.triples)

    def match(self, pattern):
        lookup = [None if isinstance(c, Variable) else c for c in pattern]
        for terms in self.walk(*lookup):
            bindings = {}
            for component, term in zip(pattern, terms):
                if isinstance(component, Variable) and bindings.setdefault(component, term) != term:
                    break
            else:
                yield bindings

    def property_counts(self):
        return {p: sum(map(len, by_object.values())) for p, by_object in self.pos.items()}


# Small pools, so that sequences keep meeting the same subject, property
# and object again -- where index order can go wrong.
_NODES = [IRI(f"urn:n{i}") for i in range(3)]
_PROPS = [IRI("urn:p0"), IRI("urn:p1"), _NODES[0]]
_OBJECTS = _NODES[:2] + [Literal("x"), Literal("1", datatype="urn:int")]
_triples = st.builds(Triple, st.sampled_from(_NODES), st.sampled_from(_PROPS), st.sampled_from(_OBJECTS))
_slots = st.tuples(
    st.none() | st.sampled_from(_NODES),
    st.none() | st.sampled_from(_PROPS),
    st.none() | st.sampled_from(_OBJECTS),
    st.sampled_from(["xyz", "xyx", "xxx"]),  # match's variable names
)
_READS = ("walk", "triples", "match", "subjects", "objects", "properties",
          "property_counts", "len", "iter")
_ops = st.one_of(
    st.tuples(st.just("add"), _triples),
    st.tuples(st.just("add"), _triples),
    st.tuples(st.just("discard"), _triples),
    st.tuples(st.just("discard"), st.integers(0, 20)),  # the n-th triple held
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.sampled_from(_READS), _slots),
)


def _read(graph, model, kind, slots):
    """One read of *graph*, and what the eager model says it must give."""
    s, p, o, names = slots
    if kind == "walk":
        return list(graph.walk(s, p, o)), list(model.walk(s, p, o))
    if kind == "triples":
        return list(graph.triples(s, p, o)), [Triple(*t) for t in model.walk(s, p, o)]
    if kind == "match":
        pattern = TriplePattern(*(c if c is not None else Variable(v) for c, v in zip(slots, names)))
        return list(graph.match(pattern)), list(model.match(pattern))
    if kind == "subjects":
        return graph.subjects(p, o), {t[0] for t in model.walk(None, p, o)}
    if kind == "objects":
        return graph.objects(s, p), {t[2] for t in model.walk(s, p, None)}
    if kind == "properties":
        return graph.properties(), set(model.pos)
    if kind == "property_counts":
        return list(graph.property_counts().items()), list(model.property_counts().items())
    if kind == "len":
        return len(graph), len(model.triples)
    return list(graph), list(model.triples)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ops, max_size=50))
def test_lazy_indexes_read_like_eager_ones(ops):
    """Every read, before and after the indexes are built, in the order
    the eager model gives -- every walk pattern, through adds, discards
    and copies made at any point."""
    graph, model = Graph(), _EagerGraph()
    for kind, argument in ops:
        if kind == "add":
            assert graph.add(argument) == model.add(argument)
        elif kind == "discard":
            if isinstance(argument, int):
                held = list(model.triples)
                if not held:
                    continue
                argument = held[argument % len(held)]
            assert graph.discard(argument) == model.discard(argument)
        elif kind == "copy":
            graph, model = graph.copy(), _EagerGraph(model.triples)
        else:
            got, expected = _read(graph, model, kind, argument)
            assert got == expected, kind
    for slots in itertools.product(*([None, term] for term in (_NODES[0], _PROPS[0], _OBJECTS[1]))):
        assert list(graph.walk(*slots)) == list(model.walk(*slots))
