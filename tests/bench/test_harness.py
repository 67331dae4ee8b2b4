"""Harness tests on small graphs: measurement plumbing and paper shape."""

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import (
    ExperimentResult,
    QueryMeasurement,
    bsbm_config,
    run_experiment,
    run_paper_experiment,
)
from repro.bench.reporting import render_cost_table, render_gains_table, render_io_table
from repro.core.engines import PAPER_ENGINES
from repro.datasets import bsbm


@pytest.fixture(scope="module")
def small_result(bsbm_small):
    queries = [get_query("MG1"), get_query("MG2")]
    return run_experiment(
        "test-exp",
        "test experiment",
        queries,
        bsbm_small,
        PAPER_ENGINES,
        bsbm_config(),
        verify=True,
    )


class TestRunExperiment:
    def test_measurement_grid_complete(self, small_result):
        assert small_result.query_ids() == ["MG1", "MG2"]
        for qid in ("MG1", "MG2"):
            per_engine = small_result.for_query(qid)
            assert set(per_engine) == set(PAPER_ENGINES)

    def test_verification_passes(self, small_result):
        assert small_result.mismatches == []

    def test_measurements_have_data(self, small_result):
        for measurement in small_result.measurements:
            assert measurement.cycles > 0
            assert measurement.cost_seconds > 0
            assert measurement.rows > 0
            assert not measurement.failed

    def test_speedup(self, small_result):
        assert small_result.speedup("MG1", "hive-naive") > 1

    def test_paper_performance_ordering(self, small_result):
        """The paper's Figure 8 ordering: RA < RAPID+ < naive Hive, and
        RA < MQO, on simulated cost."""
        for qid in ("MG1", "MG2"):
            per_engine = small_result.for_query(qid)
            ra = per_engine["rapid-analytics"].cost_seconds
            assert ra < per_engine["rapid-plus"].cost_seconds
            assert per_engine["rapid-plus"].cost_seconds < per_engine["hive-naive"].cost_seconds
            assert ra < per_engine["hive-mqo"].cost_seconds


class TestTable3Function:
    def test_table3_on_custom_graph(self):
        graph = bsbm.generate(bsbm.BSBMConfig(products=60, offers_per_product=2))
        result = run_paper_experiment("table3-bsbm-500k", verify=True, graph=graph)
        assert result.query_ids() == ["G1", "G2", "G3", "G4"]
        assert result.mismatches == []
        for qid in result.query_ids():
            per_engine = result.for_query(qid)
            assert per_engine["rapid-analytics"].cycles == 2
            assert per_engine["hive-naive"].cycles == 4


class TestReporting:
    def test_cost_table_renders_all_queries(self, small_result):
        text = render_cost_table(small_result)
        assert "MG1" in text and "MG2" in text
        assert "Hive(Naive)" in text and "R.Analytics" in text

    def test_gains_table(self, small_result):
        text = render_gains_table(small_result)
        assert "speedup" in text and "%" in text

    def test_io_table(self, small_result):
        text = render_io_table(small_result)
        assert "Shuffle B" in text

    def test_failed_measurement_renders(self):
        result = ExperimentResult("x", "t", ("e1",))
        result.measurements.append(
            QueryMeasurement(
                qid="Q", engine="e1", rows=0, cycles=0, map_only_cycles=0,
                cost_seconds=float("inf"), shuffle_bytes=0, materialized_bytes=0,
                failed="HDFSOutOfSpaceError",
            )
        )
        assert "FAIL(HDFSOutOfSpaceError)" in render_cost_table(result)
