"""TG_Join probes a key index; what it finds is what a scan finds.

A result join's side rows are indexed on the variables every row of
the side binds; a partial probes on the ones it binds and then runs the
same compatibility check over what the probe returns.  Rows that leave
a join variable unbound (an OPTIONAL group key, a GROUP-BY-all default
row) keep that variable out of the index, and a partial that binds none
of the indexed variables scans.  Equal literals built as distinct
objects land in one bucket.  Everything below is compared, in order,
with the linear scan the index replaced.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.ntga.factorized import RowFactor, _compatible
from repro.ntga.physical import AggRow
from repro.ntga.planner import _SideIndex, build_result_join
from repro.rdf.graph import Graph
from repro.rdf.terms import XSD_INTEGER, IRI, Literal, Variable
from repro.rdf.triples import RDF_TYPE, Triple

REPRESENTATIONS = ("flat", "factorized")
VARIABLES = [Variable(name) for name in ("k", "g", "h", "n")]


def fresh(kind: int):
    """A new term object each call: IRIs, integer literals (``1`` and
    ``01`` are different terms, each ``1`` its own object), a string."""
    return [
        lambda: IRI("urn:a"),
        lambda: IRI("urn:b"),
        lambda: Literal("1", XSD_INTEGER),
        lambda: Literal("01", XSD_INTEGER),
        lambda: Literal("1"),
    ][kind]()


#: A binding: which variables a row binds, each to a fresh term.
_bindings = st.dictionaries(st.sampled_from(VARIABLES), st.integers(0, 4), max_size=4).map(
    lambda drawn: {variable: fresh(kind) for variable, kind in drawn.items()}
)


@st.composite
def sides(draw):
    """Side rows that mostly bind a common key set (a grouped side) and
    sometimes leave one of it out (OPTIONAL key unbound, a default row
    of a GROUP-BY-all subquery that binds only its aggregate)."""
    keys = draw(st.lists(st.sampled_from(VARIABLES), max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = {variable: fresh(draw(st.integers(0, 4))) for variable in keys}
        if row and draw(st.integers(0, 5)) == 0:
            row.pop(draw(st.sampled_from(sorted(row, key=lambda v: v.name))))
        rows.append(row)
    return rows


def scanned(rows, partial, factorized):
    return tuple(
        row for row in rows if _compatible(partial, row if factorized else row.items())
    )


@settings(max_examples=400, deadline=None)
@given(sides(), st.lists(_bindings, min_size=1, max_size=6), st.sampled_from(REPRESENTATIONS))
def test_probe_then_check_equals_the_scan(side, partials, representation):
    factorized = representation == "factorized"
    rows = [tuple(row.items()) for row in side] if factorized else side
    index = _SideIndex(rows, factorized)
    assert all(variable in dict(row) for row in rows for variable in index.variables)
    for partial in partials:
        probed = tuple(
            row
            for row in index.candidates(partial)
            if _compatible(partial, row if factorized else row.items())
        )
        expected = scanned(rows, partial, factorized)
        assert len(probed) == len(expected)
        assert all(a is b for a, b in zip(probed, expected))


def test_equal_literals_built_apart_share_a_bucket():
    rows = [
        {Variable("k"): Literal("1", XSD_INTEGER), Variable("n"): IRI(f"urn:{i}")}
        for i in range(3)
    ]
    index = _SideIndex(rows, factorized=False)
    assert index.variables == (Variable("k"), Variable("n"))
    assert index.candidates({Variable("k"): Literal("1", XSD_INTEGER)}) == rows
    assert index.candidates({Variable("k"): Literal("01", XSD_INTEGER)}) == ()
    assert index.candidates({Variable("k"): Literal("1")}) == ()
    assert index.candidates({Variable("g"): IRI("urn:0")}) is rows  # binds no key: scan


# ---------------------------------------------------------------------------
# The whole map-only join: probe against scan
# ---------------------------------------------------------------------------


def run_join(sources, representation, scan: bool, monkeypatch):
    """The result join's mapper output over ``sources`` (lists of rows,
    the first streamed), probing, or scanning as before the index."""
    counts = tuple(Variable(f"c{index}") for index in range(3))
    query = SimpleNamespace(outer_extends=(), projection=tuple(VARIABLES) + counts)
    paths = [(f"agg{i}", None) for i in range(len(sources))]
    job = build_result_join("t:join", query, paths, "t/out", representation)
    side_data = {
        path: [AggRow(0, tuple(row.items())) for row in rows]
        for (path, _), rows in zip(paths, sources)
    }
    with monkeypatch.context() as patched:
        if scan:
            patched.setattr(_SideIndex, "candidates", lambda self, partial: self.rows)
        mapper = job.mapper_factory(side_data)
        output = [
            record for row in sources[0] for record in mapper(AggRow(0, tuple(row.items())))
        ]
    delivered = [
        list(row.items())
        for record in output
        for row in (record.rows() if isinstance(record, RowFactor) else [record])
    ]
    return output, delivered


def counted(side, index):
    """*side* with an aggregate of its own bound in every row."""
    return [{**row, Variable(f"c{index}"): Literal.from_python(n)} for n, row in enumerate(side)]


@settings(max_examples=200, deadline=None)
@given(st.lists(sides(), min_size=2, max_size=3), st.sampled_from(REPRESENTATIONS))
def test_result_join_probe_equals_scan(drawn, representation):
    sources = [counted(side, index) for index, side in enumerate(drawn)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        probed, probed_rows = run_join(sources, representation, False, monkeypatch)
        scan, scan_rows = run_join(sources, representation, True, monkeypatch)
    assert probed == scan
    assert probed_rows == scan_rows


# ---------------------------------------------------------------------------
# Engines end to end: OPTIONAL group keys and GROUP-BY-all sides
# ---------------------------------------------------------------------------

EX = "http://opt.org/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture(scope="module")
def discount_graph():
    """Three products, one without a discount (its OPTIONAL key stays
    unbound), one with two; two offers each."""
    graph = Graph()
    for index in range(3):
        product = iri(f"p{index}")
        graph.add(Triple(product, RDF_TYPE, iri("PT")))
        graph.add(Triple(product, iri("label"), Literal(f"l{index % 2}")))
        for offer_index in range(2):
            offer = iri(f"o{index}_{offer_index}")
            graph.add(Triple(offer, iri("product"), product))
            graph.add(Triple(offer, iri("price"), Literal.from_python(10 * index + offer_index)))
    graph.add(Triple(iri("p0"), iri("discount"), Literal.from_python(5)))
    graph.add(Triple(iri("p1"), iri("discount"), Literal.from_python(5)))
    graph.add(Triple(iri("p1"), iri("discount"), Literal.from_python(9)))
    return graph


_STAR = "?p a o:PT ; o:label ?l . OPTIONAL {{ ?p o:discount ?d }} ?o o:product ?p ; o:price ?pr ."
QUERIES = {
    # Both sides group on an OPTIONAL key: the NULL group's row binds no
    # ?d, so it is compatible with every row of the other side, and ?d
    # is never an index key.
    "optional-key": f"""
PREFIX o: <{EX}>
SELECT ?d ?cnt ?mx {{
  {{ SELECT ?d (COUNT(?pr) AS ?cnt) {{ {_STAR.format()} }} GROUP BY ?d }}
  {{ SELECT ?d (MAX(?pr) AS ?mx) {{ {_STAR.format()} }} GROUP BY ?d }}
}}
""",
    # A grouped side joined with a GROUP-BY-all side (one default-able
    # row that binds only its aggregate) and a side keyed on ?l.
    "group-by-all": f"""
PREFIX o: <{EX}>
SELECT ?l ?cnt ?tot ?mn {{
  {{ SELECT ?l (COUNT(?pr) AS ?cnt) {{ {_STAR.format()} }} GROUP BY ?l }}
  {{ SELECT (COUNT(?pr) AS ?tot) {{ {_STAR.format()} }} }}
  {{ SELECT ?l (MIN(?pr) AS ?mn) {{ {_STAR.format()} }} GROUP BY ?l }}
}}
""",
    # The GROUP-BY-all side matches nothing: its one row is the
    # injected default (COUNT = 0).
    "default-row": f"""
PREFIX o: <{EX}>
SELECT ?l ?cnt ?none {{
  {{ SELECT ?l (COUNT(?pr) AS ?cnt) {{ {_STAR.format()} }} GROUP BY ?l }}
  {{ SELECT (COUNT(?pr) AS ?none) {{ {_STAR.format()} FILTER (?pr > 1000) }} }}
}}
""",
}


@pytest.mark.parametrize("engine", ["rapid-analytics", "rapid-plus", "hive-mqo", "hive-naive"])
@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engines_deliver_what_the_scan_delivered(
    discount_graph, name, representation, engine, monkeypatch
):
    query = to_analytical(QUERIES[name])
    config = EngineConfig(representation=representation)

    def rows():
        return make_engine(engine).execute(query, discount_graph, config).rows

    probed = rows()
    monkeypatch.setattr(_SideIndex, "candidates", lambda self, partial: self.rows)
    scan = rows()
    assert [list(row.items()) for row in probed] == [list(row.items()) for row in scan]
    assert probed, "the join must deliver rows"
