"""Float SUM / AVG do not depend on how the data is split.

A running float total rounds after every addition, so its last digits
follow the order and grouping of the additions -- which map task a value
landed in, which shard.  SUM and AVG keep floats exactly and round once
(:class:`repro.sparql.aggregates.SumAccumulator`), so every engine, block
size and shard count gives the reference evaluator's rows, ``==``.
"""

import random

import pytest

from repro.core.engines import run_query
from repro.core.results import EngineConfig
from repro.mapreduce.cost import ClusterConfig
from repro.rdf.graph import Graph
from repro.rdf.terms import XSD_DOUBLE, IRI, Literal
from repro.rdf.triples import Triple

EX = "http://ex.org/"

QUERIES = {
    "sum": "SELECT ?v (SUM(?p) AS ?s) { ?o <%sprice> ?p ; <%svendor> ?v . } GROUP BY ?v",
    "avg": "SELECT ?v (AVG(?p) AS ?a) { ?o <%sprice> ?p ; <%svendor> ?v . } GROUP BY ?v",
    "sum-distinct": (
        "SELECT ?v (SUM(DISTINCT ?p) AS ?s) { ?o <%sprice> ?p ; <%svendor> ?v . } GROUP BY ?v"
    ),
}


@pytest.fixture(scope="module")
def offers() -> Graph:
    """1,200 offers over 7 vendors, prices ``xsd:double`` with every
    digit in use (and a few repeated, for DISTINCT)."""
    rng = random.Random(7)
    prices = [rng.uniform(1.0, 10_000.0) for _ in range(900)]
    prices += rng.sample(prices, 300)
    graph = Graph()
    for index, price in enumerate(prices):
        offer = IRI(f"{EX}offer{index}")
        graph.add(Triple(offer, IRI(EX + "price"), Literal(repr(price), XSD_DOUBLE)))
        graph.add(Triple(offer, IRI(EX + "vendor"), IRI(f"{EX}vendor{rng.randrange(7)}")))
    return graph


def rows_of(report) -> list:
    return sorted((sorted((v.name, t.n3()) for v, t in row.items()) for row in report.rows))


ENGINES = ["rapid-analytics", "rapid-plus", "hive-naive", "hive-mqo"]
CELLS = [
    (engine, block, shards)
    for engine in ENGINES
    for block in (64 * 1024, 4 * 1024, 1024)
    for shards in ((1, 2, 4) if engine.startswith("rapid") else (1,))
]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_split_gives_the_reference_rows(offers, name):
    sparql = QUERIES[name] % (EX, EX)
    expected = rows_of(run_query(sparql, offers, engine="reference"))
    assert len(expected) == 7
    for engine, block, shards in CELLS:
        config = EngineConfig(
            cluster=ClusterConfig(nodes=10, block_size=block), shards=shards
        )
        report = run_query(sparql, offers, engine=engine, config=config)
        assert rows_of(report) == expected, (engine, block, shards)
