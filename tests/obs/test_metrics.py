"""Metrics instruments, registry contract, and both exporters."""

import json

import pytest

from repro import ambient
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    collecting,
    exponential_buckets,
    render_metrics_summary,
    render_prometheus,
    snapshot_dict,
    validate_prometheus,
)


# -- bucket scheme -------------------------------------------------------------


def test_exponential_buckets_multiplication_chain():
    assert exponential_buckets(0.001, 2.0, 4) == (0.001, 0.002, 0.004, 0.008)
    assert DEFAULT_BUCKETS[0] == 0.001 and len(DEFAULT_BUCKETS) == 27
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


@pytest.mark.parametrize("bad", [(0.0, 2.0, 4), (0.1, 1.0, 4), (0.1, 2.0, 0)])
def test_exponential_buckets_rejects_degenerate_schemes(bad):
    with pytest.raises(MetricsError):
        exponential_buckets(*bad)


# -- instruments ---------------------------------------------------------------


def test_counter_is_integer_only():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    counter.inc(0)
    assert counter.value == 5
    with pytest.raises(MetricsError):
        counter.inc(1.5)
    with pytest.raises(MetricsError):
        counter.inc(-1)
    with pytest.raises(MetricsError):
        counter.inc(True)


def test_gauge_rounds_floats_keeps_ints():
    gauge = Gauge()
    gauge.set(0.1234567891)
    assert gauge.value == 0.123457
    gauge.set(7)
    assert gauge.value == 7
    with pytest.raises(MetricsError):
        gauge.set("fast")


def test_histogram_buckets_and_fixed_point_sum():
    histogram = Histogram((1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 1]  # 100.0 only in implicit +Inf
    assert histogram.count == 4
    assert histogram.sum == 105.0
    with pytest.raises(MetricsError):
        Histogram((2.0, 1.0))
    with pytest.raises(MetricsError):
        Histogram(())


def test_histogram_quantiles_are_bucket_bounds():
    histogram = Histogram((1.0, 2.0, 4.0))
    assert histogram.quantile(50) == 0.0  # empty
    for value in (0.5,) * 50 + (1.5,) * 45 + (9.0,) * 5:
        histogram.observe(value)
    assert histogram.quantile(50) == 1.0
    assert histogram.quantile(95) == 2.0
    assert histogram.quantile(99) == float("inf")  # beyond last bound


def test_histogram_merge_requires_same_buckets():
    left, right = Histogram((1.0, 2.0)), Histogram((1.0, 3.0))
    with pytest.raises(MetricsError):
        left.merge(right)


# -- registry ------------------------------------------------------------------


def test_registration_is_get_or_create_and_kind_checked():
    registry = MetricsRegistry()
    first = registry.counter("requests_total", "requests", ("status",))
    second = registry.counter("requests_total", "ignored", ("status",))
    assert first is second
    with pytest.raises(MetricsError):
        registry.gauge("requests_total")
    with pytest.raises(MetricsError):
        registry.counter("requests_total", labels=("engine",))
    with pytest.raises(MetricsError):
        registry.counter("bad name!")


def test_labels_create_series_and_reject_mismatches():
    registry = MetricsRegistry()
    family = registry.counter("hits", labels=("cache",))
    family.labels(cache="plan").inc()
    family.labels(cache="plan").inc()
    family.labels(cache="result").inc()
    assert registry.value("hits", cache="plan").value == 2
    assert registry.value("hits", cache="result").value == 1
    with pytest.raises(MetricsError):
        family.labels(engine="x")
    with pytest.raises(MetricsError):
        registry.value("unknown_metric")


def test_dual_histogram_marks_wall_clock_volatile():
    registry = MetricsRegistry()
    sim, wall = registry.dual_histogram("unit_cost", "unit cost")
    sim.labels().observe(1.0)
    wall.labels().observe(0.123)
    names = [family.name for family in registry.families()]
    assert names == ["unit_cost_sim_seconds"]
    names = [family.name for family in registry.families(include_volatile=True)]
    assert names == ["unit_cost_sim_seconds", "unit_cost_wall_seconds"]


def test_collecting_installs_and_restores():
    assert ambient.registry is None
    with collecting() as registry:
        assert ambient.registry is registry
        with collecting() as inner:
            assert ambient.registry is inner
        assert ambient.registry is registry
    assert ambient.registry is None


# -- exporters -----------------------------------------------------------------


@pytest.fixture
def populated():
    registry = MetricsRegistry()
    requests = registry.counter("serve_requests_total", "requests", ("status",))
    requests.labels(status="ok").inc(3)
    requests.labels(status="deadline").inc()
    registry.gauge("cache_hit_ratio", "ratio", ("cache",)).labels(cache="plan").set(0.5)
    latency = registry.histogram("latency_seconds", "latency", buckets=(1.0, 2.0))
    for value in (0.5, 1.5, 9.0):
        latency.labels().observe(value)
    return registry


def test_snapshot_is_sorted_and_json_safe(populated):
    snapshot = snapshot_dict(populated)
    assert snapshot["schema"] == METRICS_SCHEMA
    names = [family["name"] for family in snapshot["metrics"]]
    assert names == sorted(names)
    series = snapshot["metrics"][1]["series"][0]  # latency_seconds
    assert series["quantiles"]["p99"] == "inf"  # JSON-safe spelling
    json.dumps(snapshot)  # no raw inf/nan anywhere
    labels = [s["labels"]["status"] for s in snapshot["metrics"][2]["series"]]
    assert labels == ["deadline", "ok"]  # label-sorted, not insertion order


def test_prometheus_exposition_shape(populated):
    text = render_prometheus(snapshot_dict(populated))
    assert validate_prometheus(text) == []
    assert '# TYPE serve_requests_total counter' in text
    assert 'serve_requests_total{status="ok"} 3' in text
    assert 'latency_seconds_bucket{le="1.0"} 1' in text
    assert 'latency_seconds_bucket{le="2.0"} 2' in text
    assert 'latency_seconds_bucket{le="+Inf"} 3' in text
    assert "latency_seconds_sum 11.0" in text
    assert "latency_seconds_count 3" in text


def test_render_prometheus_rejects_wrong_schema():
    with pytest.raises(MetricsError):
        render_prometheus({"schema": "something-else", "metrics": []})


def test_validate_prometheus_flags_breakage(populated):
    text = render_prometheus(snapshot_dict(populated))
    assert any(
        "no # TYPE" in problem
        for problem in validate_prometheus("mystery_metric 1\n")
    )
    broken = text.replace('latency_seconds_bucket{le="2.0"} 2', 'latency_seconds_bucket{le="2.0"} 0')
    assert any("not cumulative" in problem for problem in validate_prometheus(broken))
    missing = "\n".join(
        line for line in text.splitlines() if not line.startswith("latency_seconds_sum")
    )
    assert any("missing" in problem for problem in validate_prometheus(missing))


def test_summary_renders_series_slo_and_calibration(populated):
    slo = {
        "targets": {"p50": 1.0, "p95": None, "p99": 10.0, "budget": 0.05},
        "achieved": {"p50": 1.0, "p95": 2.0, "p99": 2.0},
        "count": 3,
        "violations": 0,
        "budget_burn": 0.0,
        "objectives": [],
        "pass": True,
    }
    calibration = {
        "verdict": "drifting",
        "observations": 4,
        "drifting": 1,
        "queries": [
            {
                "query": "MG8",
                "engine": "rapid-analytics",
                "cardinality_q_error": {"count": 4, "mean": 12.0, "max": 46.0},
                "cost_q_error": {"count": 4, "mean": 1.1, "max": 1.2},
                "verdict": "drifting",
            }
        ],
    }
    summary = render_metrics_summary(
        snapshot_dict(populated, slo=slo, calibration=calibration)
    )
    assert "serve_requests_total{status=ok} = 3" in summary
    assert "slo [p50<=1s, p99<=10s, budget=0.05]: PASS" in summary
    assert "calibration: drifting (4 cycles, 1 drifting)" in summary
    assert "MG8/rapid-analytics: cardinality q-error max 46" in summary
