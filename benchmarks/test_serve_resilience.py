"""Serve resilience A/B: availability strictly improves, answers stay
bit-identical to the fault-free baseline.

The tentpole claim of the resilience layer, replayed as a
benchmark-shaped check on the same pinned configuration as the
committed golden ``benchmarks/golden/serve-resilience-chem.json``:
identical fault-injected traffic (seed 19, 2% task crashes, no
in-workflow reattempts) served twice — resilience off, then on with
the default retry/breaker/degradation policies.  Resilience must
strictly raise availability on every seed while every successful
answer matches the fault-free rows bit-for-bit and degraded answers
come only from the last-known-good store.
"""

import pytest

from repro.mapreduce.faults import FaultPlan
from repro.serve.resilience import ResilienceConfig, serve_resilience_report
from repro.serve.workload import WorkloadSpec

SPEC = WorkloadSpec.from_spec("seeds=2,clients=3,mix=chem-overlap,requests=16")
FAULTS = FaultPlan.from_spec("19,0.02,0,0,1")


@pytest.fixture(scope="module")
def resilience_report():
    return serve_resilience_report(SPEC, FAULTS, ResilienceConfig())


def test_availability_strictly_improves(resilience_report):
    assert resilience_report["verdicts"]["availability_strictly_improved"] is True
    summary = resilience_report["summary"]
    assert summary["availability_on"] > summary["availability_off"]
    for seed_block in resilience_report["runs"]:
        on, off = seed_block["on"], seed_block["off"]
        assert on["availability"] > off["availability"], seed_block["seed"]


def test_successful_answers_match_fault_free_baseline(resilience_report):
    assert resilience_report["verdicts"]["ok_rows_match_fault_free"] is True
    assert resilience_report["verdicts"]["degraded_rows_match_fault_free"] is True
    assert resilience_report["mismatched_ok_requests"] == []
    assert resilience_report["mismatched_degraded_requests"] == []


def test_resilience_machinery_actually_engaged(resilience_report):
    """The availability gain must come from the resilience levers, not
    luck: the fault plan crashes batches, and the on arm retries and
    isolates them."""
    summary = resilience_report["summary"]
    assert summary["retries"] > 0
    assert summary["retry_successes"] > 0
    assert summary["isolated_groups"] > 0


def test_error_budget_holds_on_the_resilient_arm(resilience_report):
    assert resilience_report["verdicts"]["slo_error_budget_pass"] is True
    assert resilience_report["slo"]["budget_burn"] <= (
        resilience_report["slo"]["targets"]["budget"]
    )
