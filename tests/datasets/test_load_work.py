"""What a load pays for: a graph builds its SPO/POS/OSP indexes only when
something walks them, and one load builds one term per distinct IRI."""

import pytest

from repro import EngineConfig, datasets, run_query
from repro.bench.catalog import CATALOG
from repro.core.explain import explain
from repro.rdf.ntriples import parse_graph, serialize
from repro.rdf.terms import IRI


def _indexed(graph) -> bool:
    return graph._spo is not None


@pytest.mark.parametrize(
    "engine,config",
    [
        ("rapid-analytics", None),
        ("rapid-analytics", EngineConfig(planner="cost")),
        ("rapid-plus", None),
        ("hive-naive", None),
        ("hive-mqo", None),
        ("rapid-analytics", EngineConfig(shards=2)),
    ],
    ids=["rapid-analytics", "cost-planner", "rapid-plus", "hive-naive", "hive-mqo", "shards-2"],
)
def test_the_engines_leave_a_graph_unindexed(engine, config):
    """The paper's engines read triplegroups and VP tables, both derived
    from the triples alone: running them must not build the indexes."""
    graph = datasets.generate("bsbm", "tiny")
    report = run_query(CATALOG["MG1"].sparql, graph, engine, config)
    assert report.rows
    assert not _indexed(graph)


def test_explain_leaves_a_graph_unindexed():
    graph = datasets.generate("bsbm", "tiny")
    assert explain(CATALOG["MG3"].sparql, graph=graph)
    assert not _indexed(graph)


def test_the_reference_evaluator_builds_the_indexes():
    graph = datasets.generate("bsbm", "tiny")
    assert not _indexed(graph)
    run_query(CATALOG["MG1"].sparql, graph, "reference")
    assert _indexed(graph)


def _iri_copies(graph) -> dict[str, int]:
    """IRI text -> number of distinct objects carrying it, where above one."""
    objects: dict[str, set[int]] = {}
    for triple in graph:
        for term in triple:
            if isinstance(term, IRI):
                objects.setdefault(term.value, set()).add(id(term))
    return {value: len(ids) for value, ids in objects.items() if len(ids) > 1}


@pytest.mark.parametrize("dataset", ["bsbm", "chem", "pubmed"])
def test_one_load_builds_each_iri_once(dataset):
    graph = datasets.generate(dataset, "tiny")
    assert _iri_copies(graph) == {}
    parsed = parse_graph(serialize(graph))
    assert parsed._triples == graph._triples
    assert _iri_copies(parsed) == {}
