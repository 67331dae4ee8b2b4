"""Tests for graph profiling."""

import pytest

from repro.datasets import pubmed
from repro.rdf.graph import Graph
from repro.rdf.namespaces import PUBMED_NS
from repro.rdf.stats import profile
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import RDF_TYPE, Triple


@pytest.fixture
def small_graph():
    g = Graph()
    g.add_all(
        [
            Triple(IRI("urn:a"), RDF_TYPE, IRI("urn:C1")),
            Triple(IRI("urn:b"), RDF_TYPE, IRI("urn:C1")),
            Triple(IRI("urn:c"), RDF_TYPE, IRI("urn:C2")),
            Triple(IRI("urn:a"), IRI("urn:tag"), Literal("x")),
            Triple(IRI("urn:a"), IRI("urn:tag"), Literal("y")),
            Triple(IRI("urn:a"), IRI("urn:tag"), Literal("z")),
            Triple(IRI("urn:b"), IRI("urn:name"), Literal("bee")),
        ]
    )
    return g


def test_totals(small_graph):
    stats = profile(small_graph)
    assert stats.total_triples == 7
    assert set(stats.properties) == {RDF_TYPE, IRI("urn:tag"), IRI("urn:name")}


def test_property_fanout_and_multivalue(small_graph):
    stats = profile(small_graph)
    tag = stats.property_stats(IRI("urn:tag"))
    assert tag.triples == 3
    assert tag.distinct_subjects == 1
    assert tag.avg_fanout == 3.0
    assert tag.is_multi_valued
    name = stats.property_stats(IRI("urn:name"))
    assert not name.is_multi_valued


def test_fanout_histogram(small_graph):
    stats = profile(small_graph)
    tag = stats.property_stats(IRI("urn:tag"))
    # urn:a carries all three tag objects.
    assert tag.fanout_histogram == ((3, 1),)
    assert tag.max_fanout == 3
    rdf_type = stats.property_stats(RDF_TYPE)
    assert rdf_type.fanout_histogram == ((1, 3),)
    assert rdf_type.max_fanout == 1


def test_fanout_histogram_in_as_dict(small_graph):
    payload = profile(small_graph).as_dict()
    assert payload["schema"] == "repro-graph-stats/v1.2"
    tag = payload["properties"]["urn:tag"]
    assert tag["fanout_histogram"] == {"3": 1}
    assert tag["max_fanout"] == 3
    for prop in payload["properties"].values():
        assert sum(prop["fanout_histogram"].values()) == prop["distinct_subjects"]
        assert (
            sum(int(f) * n for f, n in prop["fanout_histogram"].items())
            == prop["triples"]
        )


def test_class_selectivity(small_graph):
    stats = profile(small_graph)
    assert stats.class_sizes == {IRI("urn:C1"): 2, IRI("urn:C2"): 1}
    assert stats.class_selectivity(IRI("urn:C2")) == pytest.approx(1 / 3)
    # Unknown classes get a small nonzero floor (half a subject's
    # share, clamped), so a cost-based plan never prices a typed star
    # at exactly zero just because the class is absent from the sample.
    assert stats.class_selectivity(IRI("urn:C9")) == pytest.approx(0.5 / 3)


def test_equivalence_class_histogram(small_graph):
    stats = profile(small_graph)
    # a: {type, tag}; b: {type, name}; c: {type}
    assert len(stats.equivalence_class_histogram) == 3


def test_rankings(small_graph):
    stats = profile(small_graph)
    # rdf:type and urn:tag tie at 3 triples; both are valid winners.
    top = stats.largest_properties(1)[0]
    assert top.triples == 3
    assert top.property in (RDF_TYPE, IRI("urn:tag"))


def test_describe_renders(small_graph):
    text = profile(small_graph).describe()
    assert "7 triples" in text
    assert "multi-valued" in text


def test_empty_graph():
    stats = profile(Graph())
    assert stats.total_triples == 0
    assert stats.class_selectivity(IRI("urn:C")) == 0.0


def test_max_fanout_on_empty_histogram():
    from repro.rdf.stats import PropertyStats

    empty = PropertyStats(
        property=IRI("urn:p"), triples=0, distinct_subjects=0, distinct_objects=0
    )
    assert empty.max_fanout == 0


def test_pubmed_mesh_is_most_multi_valued():
    """The dataset property driving MG13's blowup shows up in the profile."""
    stats = profile(pubmed.generate(pubmed.preset("tiny")))
    ranked = sorted(stats.properties.values(), key=lambda s: s.avg_fanout, reverse=True)
    top = {s.property for s in ranked[:3]}
    assert PUBMED_NS.mesh_heading in top
