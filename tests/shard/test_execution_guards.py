"""Edge-of-the-shard-subsystem guards: what rejects, what degrades,
and the small pure helpers the driver leans on.

These are the contracts the composition matrix does not exercise — every
door's refusal to hand a sharded config to an engine that would
silently ignore it (or to one that does not exist), the ``--shards``
spec parser, the per-shard cluster slicing, and the EXPLAIN sharding
section.
"""

import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.catalog import get_query
from repro.core.engines import make_engine, run_all_engines, run_query, to_analytical
from repro.core.explain import explain, explain_report
from repro.core.results import EngineConfig
from repro.errors import PlanningError, ShardError
from repro.mapreduce.cost import ClusterConfig
from repro.report import answers_digest
from repro.serve import QueryService, ServiceConfig
from repro.shard.execution import shard_cluster
from repro.shard.partition import PARTITIONERS, build_partition, parse_shard_spec


@pytest.fixture(scope="module")
def mg1(bsbm_small):
    return to_analytical(get_query("MG1").sparql), bsbm_small


class TestFacadeGuards:
    @pytest.mark.parametrize("engine", ["reference", "hive-naive", "hive-mqo"])
    def test_non_ntga_engines_reject_sharded_configs(self, engine, mg1):
        query, graph = mg1
        with pytest.raises(ShardError, match="does not support sharded"):
            run_query(query, graph, engine, EngineConfig(shards=2))

    #: Every place a config meets an engine.
    DOORS = {
        "run_query": lambda e, q, g, c: run_query(q, g, e, c),
        "run_all_engines": lambda e, q, g, c: run_all_engines(q, g, c, engines=(e,)),
        "execute": lambda e, q, g, c: make_engine(e).execute(q, g, c),
        "service": lambda e, q, g, c: QueryService(g, ServiceConfig(e, c)),
        # A reference explanation runs nothing.
        "explain": lambda e, q, g, c: explain(q, e, g, c),
        "explain_report": lambda e, q, g, c: explain_report(q, e, g, c),
    }

    @pytest.mark.parametrize(
        "door, engine",
        [
            (door, engine)
            for door in DOORS
            for engine in ("hive-naive", "hive-mqo", "reference")
            if not (door.startswith("explain") and engine == "reference")
        ],
    )
    def test_every_door_rejects_with_the_one_line(self, door, engine, mg1):
        """Hive and the reference never read ``shards``: wherever a
        sharded config reaches them, the same one-line error -- not the
        unsharded answers."""
        with pytest.raises(ShardError) as caught:
            self.DOORS[door](engine, *mg1, EngineConfig(shards=2))
        assert str(caught.value) == (
            f"engine {engine!r} does not support sharded execution (shards=2); "
            "sharding is available on: rapid-plus, rapid-analytics"
        )

    def test_partitioner_alone_triggers_the_guard(self, mg1):
        query, graph = mg1
        with pytest.raises(ShardError, match="sharding is available on"):
            run_query(query, graph, "reference", EngineConfig(partitioner="hash"))

    def test_one_shard_with_a_partitioner_is_still_rejected_on_hive(self, mg1):
        """One shard runs the single-cluster path, but the combination
        stays unsupported where the engine never reads the knobs."""
        query, graph = mg1
        with pytest.raises(ShardError, match="sharding is available on"):
            run_query(query, graph, "hive-naive", EngineConfig(shards=1, partitioner="hash"))

    def test_an_unknown_engine_is_diagnosed_as_unknown(self, mg1):
        query, graph = mg1
        with pytest.raises(PlanningError, match=r"unknown engine .* \(known: "):
            run_query(query, graph, "no-such-engine", EngineConfig(shards=2))
        with pytest.raises(PlanningError, match="unknown engine"):
            run_all_engines(
                query, graph, EngineConfig(shards=2), engines=("rapid-plus", "nope")
            )

    def test_ntga_engines_accept_sharded_configs(self, mg1):
        query, graph = mg1
        report = run_query(query, graph, "rapid-plus", EngineConfig(shards=2))
        assert report.rows

    def test_batch_execution_runs_sharded(self, mg1):
        """A merged batch is a plan like any other: the sharded driver
        runs it (``tests/integration/test_shard_differential.py`` has the
        generated pairs)."""
        from repro.ntga.engine import execute_batch

        query, graph = mg1
        solo = run_query(query, graph).rows
        batch = execute_batch([query, query], graph, EngineConfig(shards=2))
        assert batch.rows_by_query == [solo, solo]


class TestShardSpecParser:
    def test_bare_count_means_all_strategies(self):
        assert parse_shard_spec("4") == (4, PARTITIONERS)

    def test_count_with_strategy(self):
        assert parse_shard_spec("2,min-edge-cut") == (2, ("min-edge-cut",))

    @pytest.mark.parametrize("spec", ["", "four", "4,metis", "0", "-1,hash"])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ShardError):
            parse_shard_spec(spec)

    @pytest.mark.parametrize("spec", ["4,", "4, ", "4,hash,extra", "4,,hash", ",hash"])
    def test_a_spec_off_the_grammar_is_malformed_not_defaulted(self, spec):
        """A trailing comma used to run with the default partitioner and
        a third field to be blamed on the partitioner's name."""
        with pytest.raises(ShardError, match="malformed --shards spec .*: expected N or N,strategy"):
            parse_shard_spec(spec)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=12),
            # Near misses: the grammar's own pieces, glued arbitrarily.
            st.lists(
                st.sampled_from(
                    [",", " ", "0", "1", "4", "-", "+", "_", "hash", "locality",
                     "min-edge-cut", "metis", "\u0664", "\n"]
                ),
                max_size=6,
            ).map("".join),
        )
    )
    def test_any_text_parses_to_a_valid_pair_or_a_shard_error(self, spec):
        try:
            shards, strategies = parse_shard_spec(spec)
        except ShardError as error:
            assert "\n" not in str(error)  # the CLI prints it on one line
            return
        assert type(shards) is int and shards >= 1
        assert strategies and set(strategies) <= set(PARTITIONERS)
        assert spec.count(",") <= 1
        assert strategies == PARTITIONERS or len(strategies) == 1


class TestShardCluster:
    def test_divides_nodes_keeping_slots(self):
        cluster = ClusterConfig(nodes=10)
        sliced = shard_cluster(cluster, 4)
        assert sliced.nodes == 2
        assert sliced.map_slots_per_node == cluster.map_slots_per_node
        assert sliced.reduce_slots_per_node == cluster.reduce_slots_per_node

    def test_never_below_one_node(self):
        assert shard_cluster(ClusterConfig(nodes=3), 8).nodes == 1

    def test_single_shard_is_identity(self):
        cluster = ClusterConfig(nodes=10)
        assert shard_cluster(cluster, 1) is cluster


class TestDescribeAndDigest:
    def test_describe_names_strategy_and_cut(self, bsbm_small):
        partition = build_partition(bsbm_small, "min-edge-cut", 3)
        text = partition.describe()
        assert "min-edge-cut over 3 shard(s)" in text
        assert f"edge cut {partition.cut_edges}/{partition.total_edges}" in text

    def test_rows_digest_is_order_insensitive(self, mg1):
        query, graph = mg1
        rows = run_query(query, graph).rows
        assert len(rows) > 1
        assert answers_digest(rows) == answers_digest(list(reversed(rows)))
        assert answers_digest(rows) != answers_digest(rows[1:])


class TestExplainSharding:
    def test_text_section_lists_every_shard(self, mg1):
        query, graph = mg1
        text = explain(
            query, "rapid-analytics", graph, EngineConfig(shards=3, partitioner="hash")
        )
        assert "sharding (hash, 3 shards):" in text
        for shard in range(3):
            assert f"shard {shard}:" in text
        assert "estimated exchange" in text

    def test_report_sharding_matches_partition(self, mg1):
        query, graph = mg1
        config = EngineConfig(shards=4, partitioner="min-edge-cut")
        sharding = explain_report(query, "rapid-analytics", graph, config)["sharding"]
        partition = build_partition(graph, "min-edge-cut", 4)
        assert sharding["strategy"] == "min-edge-cut"
        assert [s["groups"] for s in sharding["per_shard"]] == list(
            partition.group_counts
        )
        assert sharding["cut_edges"] == partition.cut_edges
        assert sharding["estimated_exchange_bytes"] > 0

    def test_unsharded_report_has_no_sharding_key(self, mg1):
        query, graph = mg1
        report = explain_report(query, "rapid-analytics", graph, EngineConfig())
        assert "sharding" not in report
