"""Workload spec parsing, deterministic arrival generation, and the
``repro-serve-workload/v2`` report (shape, verdicts).  Golden round-trip
and drift detection are ``tests/core/test_report.py``, for every kind."""

import pytest

from repro.errors import ServeError
from repro.serve.workload import (
    SERVE_SCHEMA,
    WORKLOAD_MIXES,
    WorkloadSpec,
    render_serve_report,
    serve_workload_report,
    workload_requests,
)


def test_from_spec_minimal_defaults():
    spec = WorkloadSpec.from_spec("seeds=2,clients=3,mix=chem-overlap")
    assert (spec.seeds, spec.clients, spec.mix) == (2, 3, "chem-overlap")
    assert spec.requests == 24 and spec.rate == 8.0
    assert spec.batching and spec.caching and spec.deadline is None


def test_from_spec_full():
    spec = WorkloadSpec.from_spec(
        "seeds=1, clients=2, mix=bsbm-star, requests=8, window=0.5, rate=4,"
        " engine=hive-mqo, batch=off, cache=on, deadline=90, max_pending=16"
    )
    assert spec.engine == "hive-mqo"
    assert not spec.batching and spec.caching
    assert spec.deadline == 90.0 and spec.max_pending == 16
    assert spec.window == 0.5 and spec.rate == 4.0


@pytest.mark.parametrize(
    "text",
    [
        "",  # missing everything
        "seeds=1,clients=1",  # missing mix
        "seeds=1,clients=1,mix=chem-overlap,bogus=1",  # unknown key
        "seeds=banana,clients=1,mix=chem-overlap",  # not an int
        "seeds=1,clients=1,mix=no-such-mix",  # unknown mix
        "seeds=0,clients=1,mix=chem-overlap",  # seeds < 1
        "seeds=1,clients=0,mix=chem-overlap",  # clients < 1
        "seeds=1,clients=1,mix=chem-overlap,requests=0",
        "seeds=1,clients=1,mix=chem-overlap,window=0",
        "seeds=1,clients=1,mix=chem-overlap,window=inf",  # Infinity in the report
        "seeds=1,clients=1,mix=chem-overlap,rate=-1",
        "seeds=1,clients=1,mix=chem-overlap,batch=maybe",  # bad flag
        "seeds 1,clients=1,mix=chem-overlap",  # not key=value
    ],
)
def test_from_spec_rejects_malformed(text):
    with pytest.raises(ServeError, match="invalid workload spec"):
        WorkloadSpec.from_spec(text)


def test_arrivals_are_deterministic_and_monotone():
    spec = WorkloadSpec.from_spec("seeds=1,clients=1,mix=chem-overlap,requests=12")
    first = workload_requests(spec, seed=3)
    second = workload_requests(spec, seed=3)
    assert first == second
    assert [r.arrival for r in first] == sorted(r.arrival for r in first)
    assert all(r.label in WORKLOAD_MIXES["chem-overlap"][2] for r in first)
    assert workload_requests(spec, seed=4) != first


def test_report_shape_and_verdicts(chem_tiny):
    spec = WorkloadSpec.from_spec("seeds=1,clients=2,mix=chem-overlap,requests=6")
    report = serve_workload_report(spec, graph=chem_tiny)
    assert report["schema"] == SERVE_SCHEMA
    assert report["queries"] == list(WORKLOAD_MIXES["chem-overlap"][2])
    assert WorkloadSpec(**report["workload"]) == spec
    assert len(report["runs"]) == 1
    run = report["runs"][0]
    assert run["requests"] == 6
    assert set(run["latency"]) == {"count", "mean", "p50", "p90", "p95", "p99", "max"}
    assert report["verdicts"]["all_rows_match"] is True
    assert report["verdicts"]["cost_strictly_reduced"] is True
    assert report["verdicts"]["slo_pass"] is True
    assert report["slo"]["overall"]["pass"] is True
    assert len(report["slo"]["per_seed"]) == 1
    assert run["served_cost_seconds"] < run["baseline_cost_seconds"]
    rendered = render_serve_report(report)
    assert "chem-overlap serve workload" in rendered
    assert "cost strictly reduced on every seed: True" in rendered


def test_sharing_disabled_verdict_is_none(chem_tiny):
    spec = WorkloadSpec.from_spec(
        "seeds=1,clients=1,mix=chem-overlap,requests=4,batch=off,cache=off"
    )
    report = serve_workload_report(spec, graph=chem_tiny)
    assert report["verdicts"]["cost_strictly_reduced"] is None
    assert report["verdicts"]["all_rows_match"] is True
