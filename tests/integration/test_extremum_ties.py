"""MIN / MAX over value-equal terms give one answer everywhere.

``"1"^^xsd:integer`` and ``"1.0"^^xsd:double`` are equal values, and so
are ``0.0`` and ``-0.0``; which of them a MIN or MAX returns must not
depend on the order an engine meets a group's rows in, nor on how a
sharded run splits them into partials.  Each vendor below offers both
members of a tie, in one insertion order or the other.
"""

import pytest

from repro.core.engines import run_query
from repro.core.results import EngineConfig
from repro.rdf.graph import Graph
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER, IRI, Literal
from repro.rdf.triples import Triple
from repro.shard.partition import PARTITIONERS

EX = "http://ex.org/"
TIES = [
    (Literal("1", XSD_INTEGER), Literal("1.0", XSD_DOUBLE)),
    (Literal("0.0", XSD_DOUBLE), Literal("-0.0", XSD_DOUBLE)),
]
QUERY = (
    "SELECT ?v (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) "
    "{ ?o <%sprice> ?p ; <%svendor> ?v . } GROUP BY ?v" % (EX, EX)
)


@pytest.fixture(scope="module")
def offers() -> Graph:
    graph = Graph()
    for vendor in range(8):
        pair = TIES[vendor % 2]
        for index, price in enumerate(pair if vendor % 4 < 2 else pair[::-1]):
            offer = IRI(f"{EX}offer{vendor}-{index}")
            graph.add(Triple(offer, IRI(EX + "price"), price))
            graph.add(Triple(offer, IRI(EX + "vendor"), IRI(f"{EX}vendor{vendor}")))
    return graph


def rendered(rows) -> list:
    return [sorted((v.name, t.n3()) for v, t in row.items()) for row in rows]


def test_a_tie_resolves_to_one_term_in_every_engine_and_shard(offers):
    expected = sorted(rendered(run_query(QUERY, offers, engine="reference").rows))
    assert len(expected) == 8
    # The canonical member of each tie: the integer, and -0.0.
    for row in expected:
        lo, hi = dict(row)["lo"], dict(row)["hi"]
        assert lo == hi and lo in ('"1"^^<%s>' % XSD_INTEGER, '"-0.0"^^<%s>' % XSD_DOUBLE)
    unsharded = run_query(QUERY, offers, engine="rapid-analytics")
    assert sorted(rendered(unsharded.rows)) == expected
    for shards in (2, 4):
        for partitioner in PARTITIONERS:
            config = EngineConfig(shards=shards, partitioner=partitioner)
            sharded = run_query(QUERY, offers, engine="rapid-analytics", config=config)
            assert sharded.rows == unsharded.rows, (shards, partitioner)
