"""Tests for execution reports and engine configuration."""

import pytest

from repro.core.results import EngineConfig, ExecutionReport
from repro.mapreduce.job import JobStats
from repro.mapreduce.runner import WorkflowStats
from repro.rdf.terms import Literal, Variable


def _job(name="j", map_only=False, cost=1.0, shuffle=10, out=20):
    return JobStats(
        name=name,
        map_only=map_only,
        map_tasks=1,
        reduce_tasks=0 if map_only else 1,
        input_bytes=100,
        side_input_bytes=0,
        shuffle_bytes=shuffle,
        output_bytes=out,
        input_records=5,
        output_records=2,
        cost_seconds=cost,
    )


def _stats():
    stats = WorkflowStats()
    stats.jobs.append(_job("a", map_only=False, cost=2.0))
    stats.jobs.append(_job("b", map_only=True, cost=1.0))
    return stats


class TestWorkflowStats:
    def test_cycle_accounting(self):
        stats = _stats()
        assert stats.cycles == 2
        assert stats.map_only_cycles == 1
        assert stats.full_cycles == 1

    def test_totals(self):
        stats = _stats()
        assert stats.total_cost == 3.0
        assert stats.total_shuffle_bytes == 20
        assert stats.total_materialized_bytes == 40

    def test_describe(self):
        assert "TOTAL: 2 cycles" in _stats().describe()


class TestExecutionReport:
    def _report(self):
        row = {Variable("x"): Literal("v")}
        return ExecutionReport(
            engine="test", rows=[row, dict(row)], stats=_stats(), plan=["a", "b"]
        )

    def test_delegated_properties(self):
        report = self._report()
        assert report.cycles == 2
        assert report.full_cycles == 1
        assert report.map_only_cycles == 1
        assert report.cost_seconds == 3.0

    def test_statless_report(self):
        report = ExecutionReport(engine="reference", rows=[], stats=None)
        assert report.cycles == 0
        assert report.cost_seconds == 0.0

    def test_summary(self):
        text = self._report().summary()
        assert "test: 2 rows, 2 cycles" in text


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.cluster.nodes == 10
        assert config.hdfs_capacity is None
        assert config.mapjoin_threshold > 0

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.mapjoin_threshold = 5  # type: ignore[misc]
