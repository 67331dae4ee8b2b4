"""Shared fixtures: small benchmark graphs, the catalog's graphs,
configs and base runs, and row-comparison helpers."""

from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from repro.bench.catalog import CATALOG
from repro.bench.harness import dataset_config
from repro.core.engines import make_engine, to_analytical
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig, ExecutionReport
from repro.datasets import bsbm, chem2bio2rdf, pubmed
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import RDF_TYPE, Triple

EX = "http://ex.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


def canonical_rows(rows) -> Counter:
    """Engine-independent multiset form of solution rows."""
    return Counter(
        frozenset((variable.name, str(term)) for variable, term in row.items())
        for row in rows
    )


def canonical_sorted_rows(rows) -> list[tuple[tuple[str, str], ...]]:
    """Engine-independent *sorted canonical form*: every row rendered as
    sorted ``(name, n3)`` pairs, rows sorted — duplicates preserved, so
    equality is bag-equality and a mismatch diff is readable.  The
    differential suite's and the scheduler tests' shared oracle form."""
    return sorted(
        tuple(sorted((variable.name, term.n3()) for variable, term in row.items()))
        for row in rows
    )


@pytest.fixture(scope="session")
def bsbm_small() -> Graph:
    return bsbm.generate(bsbm.BSBMConfig(products=80, vendors=10, offers_per_product=2))


@pytest.fixture(scope="session")
def chem_tiny() -> Graph:
    return chem2bio2rdf.generate(chem2bio2rdf.preset("tiny"))


@pytest.fixture(scope="session")
def pubmed_tiny() -> Graph:
    return pubmed.generate(pubmed.preset("tiny"))


#: The session graph fixture each catalog dataset runs on.
_DATASET_FIXTURE = {"bsbm": "bsbm_small", "chem": "chem_tiny", "pubmed": "pubmed_tiny"}


def catalog_graph(request, qid: str) -> Graph:
    """The session graph catalog query *qid* runs on."""
    return request.getfixturevalue(_DATASET_FIXTURE[CATALOG[qid].dataset])


def bench_config(qid: str) -> EngineConfig:
    """The per-dataset environment (cluster size, map-join threshold)
    the paper's experiments and ``repro serve`` run *qid* under."""
    return dataset_config(CATALOG[qid].dataset)


@cache
def catalog_query(qid: str) -> AnalyticalQuery:
    return to_analytical(CATALOG[qid].sparql)


#: The configs every variant of a catalog run is stated against.
BASES = {"default": lambda qid: EngineConfig(), "bench": bench_config}


@pytest.fixture(scope="session")
def base_run(request):
    """``base_run(qid, engine, base)``: the one run of *qid* on *engine*
    under a :data:`BASES` config, shared by the whole session.  The
    reference reads no config, so it runs once per qid."""
    runs: dict[tuple[str, str, str], ExecutionReport] = {}

    def run(qid: str, engine: str, base: str = "bench") -> ExecutionReport:
        key = (qid, engine, "default" if engine == "reference" else base)
        if key not in runs:
            runs[key] = make_engine(engine).execute(
                catalog_query(qid), catalog_graph(request, qid), BASES[key[2]](qid)
            )
        return runs[key]

    return run


@pytest.fixture(scope="session")
def checked_cells() -> dict:
    """The composition matrix's outcome per cell, kept for the session
    so a cell several test ids name is run and checked once."""
    return {}


@pytest.fixture(scope="session")
def product_graph() -> Graph:
    """A hand-built MG1-style micro dataset with known aggregates.

    6 products of type PT1; product 3 has no feature (contributes only
    to roll-ups); product 5 has two features (multi-valued); each
    product has two offers with prices 100*(i+1) and 100*(i+1)+1.
    """
    graph = Graph()
    triples = []
    for i in range(6):
        product = ex(f"prod{i}")
        triples.append(Triple(product, RDF_TYPE, ex("PT1")))
        triples.append(Triple(product, ex("label"), Literal(f"product {i}")))
        if i != 3:
            triples.append(Triple(product, ex("feature"), ex(f"feat{i % 2}")))
        if i == 5:
            triples.append(Triple(product, ex("feature"), ex("feat0")))
        for j in range(2):
            offer = ex(f"offer{i}_{j}")
            triples.append(Triple(offer, ex("product"), product))
            triples.append(Triple(offer, ex("price"), Literal.from_python(100 * (i + 1) + j)))
    graph.add_all(triples)
    return graph


MG1_STYLE_QUERY = """
PREFIX ex: <http://ex.org/>
SELECT ?f ?sumF ?cntF ?sumT ?cntT {
  { SELECT ?f (SUM(?pr2) AS ?sumF) (COUNT(?pr2) AS ?cntF) {
      ?p2 a ex:PT1 ; ex:label ?l2 ; ex:feature ?f .
      ?o2 ex:product ?p2 ; ex:price ?pr2 .
    } GROUP BY ?f
  }
  { SELECT (SUM(?pr) AS ?sumT) (COUNT(?pr) AS ?cntT) {
      ?p1 a ex:PT1 ; ex:label ?l1 .
      ?o1 ex:product ?p1 ; ex:price ?pr .
    }
  }
}
"""


@pytest.fixture(scope="session")
def mg1_style_query() -> str:
    return MG1_STYLE_QUERY
