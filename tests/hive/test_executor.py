"""Hive executor tests: plan shapes, map-join decisions, correctness."""

import pytest

from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.mapreduce.cost import ClusterConfig
from tests.conftest import canonical_rows


def reference_rows(query, graph):
    return canonical_rows(make_engine("reference").execute(to_analytical(query), graph).rows)


SINGLE_GROUPING = """
PREFIX ex: <http://ex.org/>
SELECT ?f (COUNT(?pr) AS ?c) (SUM(?pr) AS ?s) {
  ?p a ex:PT1 ; ex:label ?l ; ex:feature ?f .
  ?o ex:product ?p ; ex:price ?pr .
} GROUP BY ?f
"""


class TestNaive:
    def test_single_grouping_cycle_count(self, product_graph):
        """G-class plan: 2 star formations + 1 star-join + 1 grouping = 4."""
        report = make_engine("hive-naive").execute(
            to_analytical(SINGLE_GROUPING), product_graph
        )
        assert report.cycles == 4

    def test_single_grouping_correct(self, product_graph):
        report = make_engine("hive-naive").execute(
            to_analytical(SINGLE_GROUPING), product_graph
        )
        assert canonical_rows(report.rows) == reference_rows(SINGLE_GROUPING, product_graph)

    def test_mg1_total_cycles(self, product_graph, mg1_style_query):
        """Paper: 3 cycles per graph pattern + 2 groupings + final = 9."""
        report = make_engine("hive-naive").execute(
            to_analytical(mg1_style_query), product_graph
        )
        assert report.cycles == 9

    def test_mapjoin_threshold_controls_cycle_kind(self, product_graph):
        analytical = to_analytical(SINGLE_GROUPING)
        tiny = EngineConfig(mapjoin_threshold=0)
        generous = EngineConfig(mapjoin_threshold=10**9)
        no_mapjoin = make_engine("hive-naive").execute(analytical, product_graph, tiny)
        mapjoin = make_engine("hive-naive").execute(analytical, product_graph, generous)
        assert no_mapjoin.map_only_cycles == 0
        assert mapjoin.map_only_cycles > no_mapjoin.map_only_cycles
        # Same answers either way.
        assert canonical_rows(no_mapjoin.rows) == canonical_rows(mapjoin.rows)

    def test_filter_pushdown_correctness(self, product_graph):
        query = """
        PREFIX ex: <http://ex.org/>
        SELECT (COUNT(?pr) AS ?c) {
          ?p a ex:PT1 ; ex:label ?lbl .
          ?o ex:product ?p ; ex:price ?pr .
          FILTER(?pr > 300)
        }
        """
        report = make_engine("hive-naive").execute(to_analytical(query), product_graph)
        assert canonical_rows(report.rows) == reference_rows(query, product_graph)


class TestMQO:
    def test_mg1_total_cycles(self, product_graph, mg1_style_query):
        """Paper: composite in 3 cycles + extraction/aggregation (here 3:
        one extraction for the subset pattern, two aggregations) + final = 7."""
        report = make_engine("hive-mqo").execute(
            to_analytical(mg1_style_query), product_graph
        )
        assert report.cycles == 7

    def test_mg1_correct(self, product_graph, mg1_style_query):
        report = make_engine("hive-mqo").execute(
            to_analytical(mg1_style_query), product_graph
        )
        assert canonical_rows(report.rows) == reference_rows(mg1_style_query, product_graph)

    def test_identical_patterns_skip_extraction(self, product_graph):
        """When both patterns cover all composite columns, no DISTINCT
        extraction cycle is needed (the paper's MG6 case)."""
        query = """
        PREFIX ex: <http://ex.org/>
        SELECT ?f ?a ?b {
          { SELECT ?f (COUNT(?pr) AS ?a) {
              ?p a ex:PT1 ; ex:feature ?f . ?o ex:product ?p ; ex:price ?pr .
            } GROUP BY ?f }
          { SELECT (COUNT(?pr2) AS ?b) {
              ?p2 a ex:PT1 ; ex:feature ?f2 . ?o2 ex:product ?p2 ; ex:price ?pr2 .
            } }
        }
        """
        report = make_engine("hive-mqo").execute(to_analytical(query), product_graph)
        assert not any("extract" in name for name in report.plan)
        assert canonical_rows(report.rows) == reference_rows(query, product_graph)

    def test_falls_back_to_naive_on_non_overlap(self, product_graph):
        query = """
        PREFIX ex: <http://ex.org/>
        SELECT ?a ?b {
          { SELECT (COUNT(?x) AS ?a) { ?s ex:product ?v . ?v ex:feature ?x . } }
          { SELECT (COUNT(?y) AS ?b) { ?s2 ex:product ?w . ?t ex:feature ?w . } }
        }
        """
        report = make_engine("hive-mqo").execute(to_analytical(query), product_graph)
        assert not any("mqo" in name for name in report.plan)

    def test_composite_table_not_early_projected(self, product_graph, mg1_style_query):
        """MQO materializes the composite with all columns (the paper's
        criticism): its intermediate volume exceeds naive's projected rows
        for the same phase."""
        analytical = to_analytical(mg1_style_query)
        config = EngineConfig(mapjoin_threshold=0)
        naive = make_engine("hive-naive").execute(analytical, product_graph, config)
        mqo = make_engine("hive-mqo").execute(analytical, product_graph, config)
        naive_join_bytes = max(
            j.output_bytes for j in naive.stats.jobs if "join" in j.name
        )
        mqo_join_bytes = max(
            j.output_bytes for j in mqo.stats.jobs if "mqo-join" in j.name
        )
        assert mqo_join_bytes > naive_join_bytes


class TestGroupByAllDefaults:
    def test_empty_rollup_gets_default_row(self, product_graph):
        query = """
        PREFIX ex: <http://ex.org/>
        SELECT (COUNT(?pr) AS ?c) (SUM(?pr) AS ?s) {
          ?p a ex:NoSuchType ; ex:label ?lbl .
          ?o ex:product ?p ; ex:price ?pr .
        }
        """
        for engine in ("hive-naive", "hive-mqo"):
            report = make_engine(engine).execute(to_analytical(query), product_graph)
            assert canonical_rows(report.rows) == reference_rows(query, product_graph)
            assert len(report.rows) == 1


def test_a_star_naming_one_property_twice_pairs_every_record(product_graph):
    """Both patterns read one VP table, which a map-only scan saw one
    record at a time: it paired each feature only with itself."""
    query = """
    PREFIX ex: <http://ex.org/>
    SELECT (COUNT(*) AS ?c) { ?p ex:feature ?f1 ; ex:feature ?f2 . }
    """
    for engine in ("hive-naive", "hive-mqo"):
        report = make_engine(engine).execute(to_analytical(query), product_graph)
        assert canonical_rows(report.rows) == reference_rows(query, product_graph)
