"""Serve-layer metrics wiring: a collecting registry sees the request
stream, the caches, the MapReduce phases, and the planner; snapshots are
byte-deterministic."""

import json
from dataclasses import replace

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.obs.calibration import CalibrationMonitor
from repro.obs.metrics import MetricsRegistry, collecting, snapshot_dict
from repro.serve.service import QueryService, ServeRequest, ServiceConfig
from repro.serve.workload import WorkloadSpec, serve_workload_with_metrics

QIDS = ("MG6", "MG7", "MG8", "G8")


def _requests(qids=QIDS, spacing=120.0):
    # Spaced far apart: each request is its own window, so MG6/MG7/MG8
    # repeats hit the result cache rather than the batcher.
    return [
        ServeRequest(get_query(qid).sparql, arrival=index * spacing, label=qid)
        for index, qid in enumerate(qids)
    ]


def _serve_collecting(chem_tiny, qids=QIDS, calibration=None):
    registry = MetricsRegistry()
    # cost planner so solo runs carry a PlanChoice -> planner_choices_total
    config = ServiceConfig(engine_config=replace(chem_config(), planner="cost"))
    service = QueryService(chem_tiny, config, calibration=calibration)
    with collecting(registry):
        responses = service.serve(_requests(qids))
        service.publish_cache_metrics(registry)
    return service, registry, responses


def test_serve_populates_expected_families(chem_tiny):
    service, registry, responses = _serve_collecting(chem_tiny)
    assert len(responses) == len(QIDS)
    names = [family.name for family in registry.families()]
    for expected in (
        "serve_requests_total",
        "serve_answers_total",
        "serve_request_sim_latency_seconds",
        "serve_queue_wait_sim_seconds",
        "serve_window_admitted",
        "serve_unit_queries",
        "serve_unit_cost_sim_seconds",
        "serve_cache_size",
        "serve_cache_hits",
        "serve_cache_hit_ratio",
        "mr_jobs_total",
        "mr_phase_sim_seconds",
        "mr_job_cost_sim_seconds",
        "planner_choices_total",
    ):
        assert expected in names, f"missing {expected}"
    # wall-clock duals exist but are volatile: absent from the default view
    assert "serve_unit_cost_wall_seconds" not in names
    volatile = [f.name for f in registry.families(include_volatile=True)]
    assert "serve_unit_cost_wall_seconds" in volatile
    assert "mr_job_cost_wall_seconds" in volatile

    ok = registry.value("serve_requests_total", status="ok")
    assert ok.value == len(QIDS)
    latency = registry.value(
        "serve_request_sim_latency_seconds", engine="rapid-analytics"
    )
    assert latency.count == len(QIDS)
    # phase decomposition covers the runner's cost model phases
    phases = registry.get("mr_phase_sim_seconds")
    observed_phases = {key[0] for key in phases.series}
    assert {"map", "shuffle", "reduce"} <= observed_phases


def test_cache_gauges_match_cache_stats(chem_tiny):
    service, registry, _ = _serve_collecting(chem_tiny, qids=QIDS + QIDS)
    for cache_name, cache in (
        ("plan", service.plan_cache),
        ("result", service.result_cache),
    ):
        stats = cache.stats()
        for key, value in stats.items():
            gauge = registry.value(f"serve_cache_{key}", cache=cache_name)
            assert gauge.value == value, (cache_name, key)
    # the repeated mix must actually hit the result cache
    assert registry.value("serve_cache_hits", cache="result").value > 0


def test_calibration_monitor_sees_solo_cost_runs(chem_tiny):
    monitor = CalibrationMonitor()
    config = ServiceConfig(engine_config=replace(chem_config(), planner="cost"))
    service = QueryService(chem_tiny, config, calibration=monitor)
    service.serve(_requests(("G8", "MG7")))
    assert monitor.observations > 0
    report = monitor.report()
    queries = {entry["query"] for entry in report["queries"]}
    assert queries == {"G8", "MG7"}


def test_counter_snapshot_is_deterministically_ordered(chem_tiny):
    service, _, _ = _serve_collecting(chem_tiny)
    snapshot = service.counter_snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert "plan_cache_hit_ratio" in snapshot
    assert "result_cache_hit_ratio" in snapshot


def test_workload_snapshot_is_byte_deterministic(chem_tiny):
    spec = WorkloadSpec.from_spec(
        "seeds=1,clients=2,mix=chem-overlap,requests=6,planner=cost"
    )
    first_report, first_snapshot = serve_workload_with_metrics(spec, graph=chem_tiny)
    second_report, second_snapshot = serve_workload_with_metrics(spec, graph=chem_tiny)
    encode = lambda obj: json.dumps(obj, indent=2, sort_keys=True)
    assert encode(first_report) == encode(second_report)
    assert encode(first_snapshot) == encode(second_snapshot)
    assert first_snapshot["slo"]["pass"] is True
    assert first_snapshot["calibration"]["observations"] > 0
