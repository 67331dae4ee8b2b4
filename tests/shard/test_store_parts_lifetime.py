"""The store parts are a derived layout: built once per ``(graph.version,
strategy, shards)``, shared by every query on that graph, never modified
by one, and gone with the graph.

They hang on the cached :class:`~repro.shard.partition.Partition`
(``store_parts``), whose cache is weakly keyed by the graph.  Keeping
them in a module-level dict keyed by partition instead kept every graph
a process ever sharded alive -- measured at +39% peak RSS on the
``bsbm-scale`` ledger workload.
"""

import gc

import pytest

from repro.bench.catalog import CATALOG
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner
from repro.ntga.engine import run_plan
from repro.ntga.physical import load_triplegroups
from repro.ntga.planner import plan_rapid_analytics
from repro.rdf.terms import IRI
from repro.rdf.triples import Triple
from repro.shard.execution import ShardRecord, _part
from repro.shard.partition import build_partition

BSBM = "http://bsbm.example.org/vocabulary/"

#: GROUP BY ALL over a type no product has: the answer is the injected
#: empty-group default row alone.
NO_MATCH_QUERY = f"""
PREFIX bsbm: <{BSBM}>
SELECT (COUNT(?f) AS ?features) {{
  ?p a bsbm:NoSuchProductType ; bsbm:productFeature ?f .
}}
"""


def make_graph():
    return bsbm.generate(bsbm.BSBMConfig(products=40, vendors=6, offers_per_product=2))


@pytest.fixture
def graph():
    return make_graph()


@pytest.fixture(scope="module")
def engine():
    return make_engine("rapid-analytics")


def analytical(qid):
    return to_analytical(CATALOG[qid].sparql)


def live_shard_records():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is ShardRecord)


def layout_identity(partition):
    """The cached lists, their envelopes and their totals, by identity."""
    return {
        path: ([(id(part), [id(record) for record in part]) for part in parts], list(totals))
        for path, (parts, totals) in partition.store_parts.items()
    }


def run_sharded(graph, sparql, config):
    """One sharded query against its own HDFS, which is returned."""
    hdfs = HDFS()
    store = load_triplegroups(graph, hdfs)
    plan = plan_rapid_analytics(to_analytical(sparql), store)
    runner = MapReduceRunner(
        hdfs, config.cluster, config.cost_model, config.fault_plan, recovery=config.recovery
    )
    stats = run_plan(plan, runner, store, graph, config)
    return hdfs, store, stats


def test_no_envelope_outlives_its_graph(engine):
    before = live_shard_records()
    graph = make_graph()
    config = EngineConfig(shards=4, partitioner="hash")
    report = engine.execute(analytical("MG1"), graph, config)
    assert report.rows
    del report
    # The layout is what a finished query leaves behind...
    assert live_shard_records() - before == len(graph.subjects())
    del graph
    # ...and nothing in the process holds it but the graph's cache entry.
    assert live_shard_records() == before


def test_two_queries_on_one_graph_share_the_envelopes(graph):
    config = EngineConfig(shards=4, partitioner="hash")
    first, store, _ = run_sharded(graph, CATALOG["MG1"].sparql, config)
    layout = layout_identity(build_partition(graph, "hash", 4))
    second, _, _ = run_sharded(graph, CATALOG["MG3"].sparql, config)
    assert layout_identity(build_partition(graph, "hash", 4)) == layout
    shared = 0
    for path in store.paths_by_class.values():
        for shard in range(4):
            mine = first.read(_part(path, shard))
            theirs = second.read(_part(path, shard))
            assert mine.raw_bytes == theirs.raw_bytes
            assert len(mine.records) == len(theirs.records)
            assert all(a is b for a, b in zip(mine.records, theirs.records))
            assert mine.records is not theirs.records  # each file its own list
            shared += len(mine.records)
    assert shared == len(graph.subjects())


def test_a_new_triple_gives_fresh_parts_and_the_unsharded_rows(graph, engine):
    config = EngineConfig(shards=4, partitioner="hash")
    query = analytical("MG1")
    before = engine.execute(query, graph, config).rows
    stale = build_partition(graph, "hash", 4)
    assert stale.store_parts
    # One more offer for an existing product: MG1's aggregates move.
    offer = IRI("http://bsbm.example.org/instances/OfferAddedLater")
    product = next(t.subject for t in graph if t.property.value == f"{BSBM}productFeature")
    price = next(t.object for t in graph if t.property.value == f"{BSBM}price")
    graph.add_all(
        [
            Triple(offer, IRI(f"{BSBM}product"), product),
            Triple(offer, IRI(f"{BSBM}price"), price),
        ]
    )
    sharded = engine.execute(query, graph, config)
    fresh = build_partition(graph, "hash", 4)
    assert fresh is not stale
    assert offer in fresh.assignment
    envelopes = [r for parts, _ in fresh.store_parts.values() for part in parts for r in part]
    assert any(record.payload.subject == offer for record in envelopes)
    assert not {id(r) for r in envelopes} & {
        id(r) for parts, _ in stale.store_parts.values() for part in parts for r in part
    }
    assert sharded.rows != before  # the answer did move with the graph
    assert sharded.rows == engine.execute(query, graph, EngineConfig()).rows


@pytest.mark.parametrize("strategy, shards", [("locality", 4), ("hash", 3)])
def test_another_strategy_or_shard_count_gives_its_own_parts(
    graph, engine, strategy, shards
):
    query = analytical("MG1")
    engine.execute(query, graph, EngineConfig(shards=4, partitioner="hash"))
    base = layout_identity(build_partition(graph, "hash", 4))
    other = engine.execute(
        query, graph, EngineConfig(shards=shards, partitioner=strategy)
    )
    partition = build_partition(graph, strategy, shards)
    assert all(len(parts) == shards for parts, _ in partition.store_parts.values())
    for parts, _ in partition.store_parts.values():
        for shard, part in enumerate(parts):
            assert all(
                partition.assignment[record.payload.subject] == shard for record in part
            )
    assert layout_identity(build_partition(graph, "hash", 4)) == base
    assert other.rows == engine.execute(query, graph, EngineConfig()).rows


def test_default_injection_leaves_the_cached_lists_alone(graph, engine):
    config = EngineConfig(shards=4, partitioner="hash")
    engine.execute(analytical("MG1"), graph, config)
    partition = build_partition(graph, "hash", 4)
    layout = layout_identity(partition)
    report = engine.execute(to_analytical(NO_MATCH_QUERY), graph, config)
    assert [
        [value.python_value() for value in row.values()] for row in report.rows
    ] == [[0]]  # the injected default
    assert layout_identity(partition) == layout


def test_a_resubmitted_workflow_leaves_the_cached_lists_alone(graph):
    clean = EngineConfig(shards=4, partitioner="hash")
    run_sharded(graph, CATALOG["MG1"].sparql, clean)
    partition = build_partition(graph, "hash", 4)
    layout = layout_identity(partition)
    pins = {
        id(record): (record._size, record.order, record.payload)
        for parts, _ in partition.store_parts.values()
        for part in parts
        for record in part
    }
    faulty = EngineConfig(
        shards=4,
        partitioner="hash",
        # Every injected crash aborts its job: five resubmissions here.
        fault_plan=FaultPlan(seed=7, task_failure_rate=0.1, max_attempts=1),
        recovery=RecoveryPolicy(),
    )
    _, _, stats = run_sharded(graph, CATALOG["MG1"].sparql, faulty)
    assert stats.recovery.resubmissions >= 1 and stats.recovery.jobs_skipped
    assert layout_identity(partition) == layout
    for parts, _ in partition.store_parts.values():
        for part in parts:
            for record in part:
                size, order, payload = pins[id(record)]
                assert record._size == size
                assert record.order == order and record.payload is payload
