"""Calibration monitor: q-error math, report shape, drift verdicts, and
the live hookup to an executed cost-planner run."""

from types import SimpleNamespace

import pytest

from repro.bench.catalog import get_query
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig
from repro.obs.calibration import (
    CARDINALITY_DRIFT_THRESHOLD,
    COST_DRIFT_THRESHOLD,
    CalibrationMonitor,
    q_error,
)
from repro.obs.metrics import MetricsRegistry, collecting


def test_q_error_is_symmetric_and_floored():
    assert q_error(10, 10) == 1.0
    assert q_error(20, 10) == 2.0
    assert q_error(10, 20) == 2.0  # under-estimate penalized equally
    assert q_error(0, 0) == 1.0  # floor: exactly-right empty cycles
    assert q_error(5, 0) == 5.0
    assert q_error(0.0005, 0.002, floor=0.001) == 2.0  # cost floor


def _cycle(rows, cost, *actuals):
    """One priced cycle: its estimate and the ``(records, cost)`` of each
    executed part that carried it."""
    estimate = SimpleNamespace(output_rows=rows, cost=cost)
    return estimate, [
        SimpleNamespace(output_records=records, cost_seconds=seconds)
        for records, seconds in actuals
    ]


def test_record_compares_each_cycle_with_its_one_part_and_feeds_registry():
    monitor = CalibrationMonitor()
    registry = MetricsRegistry()
    with collecting(registry):
        compared = monitor.record(
            "MG1",
            "rapid-analytics",
            [
                _cycle(100, 10.0, (100, 10.0)),
                _cycle(50, 5.0, (10, 2.5)),
                # A sharded cycle (partial + assemble parts) is skipped on
                # purpose: its parts' costs include an unpriced exchange.
                _cycle(1, 1.0, (0, 0.5), (0, 0.5), (1, 0.7), (0, 0.7)),
            ],
        )
    assert compared == 2
    assert monitor.observations == 2
    histogram = registry.value(
        "planner_cardinality_q_error", query="MG1", engine="rapid-analytics"
    )
    assert histogram.count == 2
    assert registry.value(
        "planner_cost_q_error", query="MG1", engine="rapid-analytics"
    ).count == 2


def test_report_verdicts_against_thresholds():
    monitor = CalibrationMonitor()
    monitor.record(
        "good",
        "rapid-analytics",
        [_cycle(10, 1.0, (12, 1.1))],
    )
    monitor.record(
        "card-drift",
        "rapid-analytics",
        [_cycle(100, 1.0, (2, 1.0))],  # 50x cardinality miss
    )
    monitor.record(
        "cost-drift",
        "rapid-analytics",
        [_cycle(10, 30.0, (10, 10.0))],  # 3x cost miss
    )
    report = monitor.report()
    assert report["thresholds"] == {
        "cardinality_q_error_max": CARDINALITY_DRIFT_THRESHOLD,
        "cost_q_error_max": COST_DRIFT_THRESHOLD,
    }
    verdicts = {entry["query"]: entry["verdict"] for entry in report["queries"]}
    assert verdicts == {
        "good": "ok",
        "card-drift": "drifting",
        "cost-drift": "drifting",
    }
    assert report["drifting"] == 2 and report["verdict"] == "drifting"
    # deterministic ordering: sorted by (query, engine)
    assert [e["query"] for e in report["queries"]] == sorted(verdicts)


def test_record_report_requires_a_plan_choice(bsbm_small):
    """Nothing a Hive or rule-mode run executed was priced."""
    monitor = CalibrationMonitor()
    bare = SimpleNamespace(plan_choice=None, stats=None, engine="hive-mqo")
    assert monitor.record_report("G8", bare) == 0
    rule_run = make_engine("rapid-analytics").execute(
        to_analytical(get_query("MG1").sparql), bsbm_small, EngineConfig(planner="rule")
    )
    assert monitor.record_report("MG1", rule_run) == 0
    assert monitor.observations == 0


def test_record_report_skips_a_sharded_run_on_purpose(bsbm_small):
    """Every priced cycle of a sharded run executes as several parts."""
    report = make_engine("rapid-analytics").execute(
        to_analytical(get_query("MG1").sparql),
        bsbm_small,
        EngineConfig(planner="cost", shards=2),
    )
    assert all(len(parts) > 1 for _, parts in report.stats.priced_cycles())
    assert CalibrationMonitor().record_report("MG1", report) == 0


@pytest.mark.parametrize("qid", ["MG1"])
def test_record_report_from_live_cost_run(qid, bsbm_small):
    """An executed cost-planner run yields one comparison per MR cycle."""
    query = get_query(qid)
    report = make_engine("rapid-analytics").execute(
        to_analytical(query.sparql), bsbm_small, EngineConfig(planner="cost")
    )
    monitor = CalibrationMonitor()
    compared = monitor.record_report(qid, report)
    assert compared == report.cycles
    entry = monitor.report()["queries"][0]
    assert entry["query"] == qid and entry["engine"] == "rapid-analytics"
    assert entry["cardinality_q_error"]["count"] == report.cycles
    assert entry["cardinality_q_error"]["max"] >= 1.0
    assert entry["cost_q_error"]["max"] >= 1.0
