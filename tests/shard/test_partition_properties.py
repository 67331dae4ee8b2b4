"""Property tests for the graph partitioners (hypothesis).

The invariants that make sharded execution sound:

* every strategy is a **total, disjoint** assignment — each subject
  triplegroup lands on exactly one shard, and the per-shard tallies
  add back up to the whole graph;
* partitions are **deterministic**: pure functions of the graph's
  triple order, independent of object identity and of
  ``PYTHONHASHSEED`` (the CI matrix re-runs this file under two seeds
  and compares bytes);
* at ``shards=1`` a real sharded execution moves **zero** bytes across
  partition boundaries;
* on star-heavy clustered graphs — the shape the NTGA operators are
  built for — the greedy min-edge-cut heuristic never cuts more
  subject-to-subject edges than hash partitioning.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ShardError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import Triple
from repro.shard.partition import (
    PARTITIONERS,
    build_partition,
    stable_key_hash,
    validate_partitioner,
)

EX = "http://ex.org/"


def star_heavy_graph(clusters: int, cluster_size: int) -> Graph:
    """A clustered, star-heavy graph: *clusters* groups of
    *cluster_size* subjects each, densely linked inside a cluster (every
    subject points at its cluster siblings) and never across clusters,
    with equal-weight property stars on every subject.  The best
    possible N-way cut of such a graph is 0 whenever whole clusters fit
    on shards — exactly the structure a locality-aware partitioner must
    exploit and hash partitioning provably cannot."""
    triples = []
    for c in range(clusters):
        members = [IRI(f"{EX}c{c:03d}/s{i:03d}") for i in range(cluster_size)]
        for i, subject in enumerate(members):
            triples.append(
                Triple(subject, IRI(EX + "label"), Literal(f"c{c}s{i}"))
            )
            for sibling in members[i + 1 :]:
                triples.append(Triple(subject, IRI(EX + "link"), sibling))
    graph = Graph()
    graph.add_all(triples)
    return graph


@st.composite
def clustered_graphs(draw):
    clusters = draw(st.integers(min_value=8, max_value=14))
    cluster_size = draw(st.integers(min_value=2, max_value=5))
    return star_heavy_graph(clusters, cluster_size)


class TestTotalAndDisjoint:
    @settings(max_examples=25, deadline=None)
    @given(
        graph=clustered_graphs(),
        strategy=st.sampled_from(PARTITIONERS),
        shards=st.integers(min_value=1, max_value=7),
    )
    def test_every_subject_on_exactly_one_shard(self, graph, strategy, shards):
        partition = build_partition(graph, strategy, shards)
        subjects = {triple.subject for triple in graph}
        # Total: the assignment covers every subject (and nothing else).
        assert set(partition.assignment) == subjects
        # Disjoint by construction (a dict maps each key once); the
        # per-shard tallies must re-add to the whole graph.
        assert all(0 <= shard < shards for shard in partition.assignment.values())
        assert sum(partition.group_counts) == len(subjects)
        assert sum(partition.triple_counts) == sum(1 for _ in graph)

    @settings(max_examples=25, deadline=None)
    @given(
        graph=clustered_graphs(),
        strategy=st.sampled_from(PARTITIONERS),
        shards=st.integers(min_value=2, max_value=7),
    )
    def test_cut_edges_match_assignment(self, graph, strategy, shards):
        partition = build_partition(graph, strategy, shards)
        assert 0 <= partition.cut_edges <= partition.total_edges
        assert 0.0 <= partition.cut_fraction <= 1.0


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        strategy=st.sampled_from(PARTITIONERS),
        shards=st.integers(min_value=2, max_value=5),
    )
    def test_identical_graphs_partition_identically(self, seed, strategy, shards):
        """Two independently built copies of the same graph (distinct
        term objects, distinct ids) must produce the identical
        assignment — the partitioners may depend only on term *values*
        and triple order, never on ``id()`` or the builtin ``hash()``."""
        clusters = 6 + seed % 4
        size = 2 + seed % 3
        first = build_partition(star_heavy_graph(clusters, size), strategy, shards)
        second = build_partition(star_heavy_graph(clusters, size), strategy, shards)
        assert first.assignment == second.assignment
        assert first.cut_edges == second.cut_edges
        assert first.weights == second.weights

    def test_stable_key_hash_is_value_based(self):
        assert stable_key_hash(IRI(EX + "a")) == stable_key_hash(IRI(EX + "a"))
        assert stable_key_hash(IRI(EX + "a")) != stable_key_hash(IRI(EX + "b"))
        # Type participates: a str and an IRI with equal text differ.
        assert stable_key_hash("x") != stable_key_hash(IRI("x"))

    def test_partition_is_memoized_per_graph_version(self):
        graph = star_heavy_graph(4, 3)
        first = build_partition(graph, "hash", 3)
        assert build_partition(graph, "hash", 3) is first
        graph.add(Triple(IRI(EX + "new"), IRI(EX + "label"), Literal("n")))
        rebuilt = build_partition(graph, "hash", 3)
        assert rebuilt is not first
        assert IRI(EX + "new") in rebuilt.assignment


class TestSingleShard:
    @settings(max_examples=10, deadline=None)
    @given(graph=clustered_graphs(), strategy=st.sampled_from(PARTITIONERS))
    def test_one_shard_cuts_nothing(self, graph, strategy):
        partition = build_partition(graph, strategy, 1)
        assert partition.cut_edges == 0
        assert set(partition.assignment.values()) == {0}

    def test_one_shard_execution_exchanges_zero_bytes(self):
        """One shard, whatever the partitioner, is the single-cluster
        path: nothing crosses a partition boundary, and the run's rows,
        cycles and cost are the unsharded run's."""
        from repro.core.engines import make_engine, to_analytical
        from repro.core.results import EngineConfig
        from repro.bench.catalog import get_query
        from repro.datasets import bsbm

        graph = bsbm.generate(bsbm.preset("tiny"))
        query = to_analytical(get_query("MG1").sparql)
        engine = make_engine("rapid-analytics")
        unsharded = engine.execute(query, graph, EngineConfig())
        for strategy in PARTITIONERS:
            report = engine.execute(
                query, graph, EngineConfig(shards=1, partitioner=strategy)
            )
            assert report.stats.total_exchange_bytes == 0
            assert "exchange_bytes" not in report.stats.counters.as_dict()
            assert report.rows == unsharded.rows
            assert (report.cycles, report.cost_seconds) == (
                unsharded.cycles, unsharded.cost_seconds,
            )


class TestMinEdgeCutQuality:
    @settings(max_examples=25, deadline=None)
    @given(
        graph=clustered_graphs(),
        shards=st.integers(min_value=2, max_value=3),
    )
    def test_greedy_cut_never_worse_than_hash_on_clustered_graphs(
        self, graph, shards
    ):
        """On star-heavy clustered graphs (≥ 4x shards equal-weight
        clusters, so capacity never forces a cluster apart) the greedy
        heuristic's edge cut is monotonically non-increasing relative to
        hash partitioning."""
        greedy = build_partition(graph, "min-edge-cut", shards)
        hashed = build_partition(graph, "hash", shards)
        assert greedy.cut_edges <= hashed.cut_edges

    def test_greedy_keeps_whole_clusters_together(self):
        graph = star_heavy_graph(clusters=12, cluster_size=3)
        partition = build_partition(graph, "min-edge-cut", 3)
        # Intra-cluster edges are the only edges; a cluster-respecting
        # placement cuts none of them.
        assert partition.cut_edges == 0
        assert partition.total_edges > 0


class TestValidation:
    def test_unknown_partitioner(self):
        with pytest.raises(ShardError, match="unknown partitioner"):
            validate_partitioner("metis")

    def test_zero_shards(self):
        with pytest.raises(ShardError, match="shards must be >= 1"):
            build_partition(star_heavy_graph(2, 2), "hash", 0)
