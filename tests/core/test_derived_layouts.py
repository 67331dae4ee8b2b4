"""Every layout derived from a graph is an entry of the graph's memo
(:meth:`repro.rdf.graph.Graph.derived`): the NTGA equivalence-class
layout, the Hive VP tables, the shard partitions and their store parts,
the planner's statistics, and the one subject grouping the NTGA layout
and the partitioner share.  Nothing else holds them, so they die with
the graph by reference count."""

import gc
import weakref

import pytest

from repro.bench.catalog import get_query
from repro.core.engines import run_query
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.hive.tables import load_vertical_partitions
from repro.mapreduce.hdfs import HDFS
from repro.ntga import physical, triplegroup
from repro.ntga.physical import load_triplegroups
from repro.ntga.triplegroup import TripleGroup
from repro.perf import reference_mode
from repro.rdf.stats import GraphStats, cached_profile
from repro.rdf.terms import IRI
from repro.rdf.triples import Triple
from repro.shard.execution import ShardRecord
from repro.shard.partition import Partition, build_partition

#: The memo's key families, one per derived layout.
LAYOUTS = {
    "ntga.subject_groups",
    "ntga.classified",
    "hive.vp_tables",
    "shard.partition",
    "shard.store_parts",
    "rdf.profile",
}


def make_graph():
    return bsbm.generate(bsbm.BSBMConfig(products=30, vendors=5, offers_per_product=2))


def live_layout_objects():
    counted = (TripleGroup, ShardRecord, Partition, GraphStats)
    counts = dict.fromkeys(counted, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


def derive_every_layout(graph):
    load_triplegroups(graph, HDFS())
    load_vertical_partitions(graph, HDFS())
    cached_profile(graph)
    run_query(get_query("MG1").sparql, graph, config=EngineConfig(shards=2))


@pytest.fixture
def grouping_calls(monkeypatch):
    """Every ``group_by_subject`` call, through either module's name."""
    calls = []
    real = triplegroup.group_by_subject

    def counted(triples):
        calls.append(1)
        return real(triples)

    monkeypatch.setattr(triplegroup, "group_by_subject", counted)
    monkeypatch.setattr(physical, "group_by_subject", counted)
    return calls


def test_del_graph_frees_every_derived_layout():
    gc.collect()
    before = live_layout_objects()
    graph = make_graph()
    derive_every_layout(graph)
    assert {key[0] for key in graph._derived} == LAYOUTS
    assert live_layout_objects() != before
    alive = weakref.ref(graph)
    gc.disable()
    try:
        del graph
        assert alive() is None
        assert live_layout_objects() == before
    finally:
        gc.enable()


def test_a_graph_is_grouped_by_subject_once_per_version(grouping_calls):
    graph = make_graph()
    hdfs = HDFS()
    store = load_triplegroups(graph, hdfs)
    build_partition(graph, "hash", 4)
    build_partition(graph, "min-edge-cut", 2)
    load_triplegroups(graph, HDFS())
    assert len(grouping_calls) == 1
    # The partition weighed the very groups the EC files hold.
    stored = [g for path in store.paths_by_class.values() for g in hdfs.read(path).records]
    assert {id(g) for g in stored} == {id(g) for g in triplegroup.subject_groups(graph)}

    subject = next(iter(graph)).subject
    assert graph.add(Triple(subject, IRI("urn:test:added"), IRI("urn:test:o")))
    load_triplegroups(graph, HDFS())
    build_partition(graph, "hash", 4)
    assert len(grouping_calls) == 2


def test_reference_mode_regroups_the_layout_on_every_load(grouping_calls):
    graph = make_graph()
    with reference_mode():
        load_triplegroups(graph, HDFS())
        load_triplegroups(graph, HDFS())
    assert len(grouping_calls) == 2
    assert not graph._derived
