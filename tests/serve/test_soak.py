"""Concurrency soak: many clients' worth of queries through one
scheduler, with fault injection and checkpointed recovery underneath.

The determinism contract under test: simulated results (statuses,
sources, latencies, row digests, counters, trace events) are a pure
function of (graph, config, request sequence) — identical across
repeated runs, across simulated worker counts (execution results), and
across traced vs. untraced execution.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.bench.harness import chem_config
from repro.core.results import rows_digest
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan
from repro.serve.service import OK, QueryService, ServiceConfig
from repro.serve.workload import WorkloadSpec, workload_requests

CLIENTS = 4
SPEC = "seeds=1,clients=4,mix=chem-overlap,requests=32,rate=12"


def _soak_config(workers: int) -> ServiceConfig:
    engine_config = replace(
        chem_config(),
        fault_plan=FaultPlan(seed=29, task_failure_rate=0.04, straggler_rate=0.05),
        recovery=RecoveryPolicy(max_resubmissions=24),
    )
    return ServiceConfig(engine_config=engine_config, workers=workers)


def _requests():
    spec = WorkloadSpec.from_spec(SPEC)
    return workload_requests(spec, seed=7)


def _run(graph, workers: int):
    service = QueryService(graph, _soak_config(workers))
    responses = service.serve(_requests())
    return responses, service.counter_snapshot()


def _observable(responses):
    return [
        (
            r.request_id,
            r.label,
            r.status,
            r.source,
            r.started,
            r.completed,
            r.latency,
            r.batch_size,
            round(r.unit_cost, 9),
            rows_digest(r.rows) if r.rows is not None else None,
        )
        for r in responses
    ]


def test_soak_repeat_runs_are_identical(chem_tiny):
    first_responses, first_counters = _run(chem_tiny, CLIENTS)
    second_responses, second_counters = _run(chem_tiny, CLIENTS)
    assert all(r.status == OK for r in first_responses)
    assert _observable(first_responses) == _observable(second_responses)
    assert first_counters == second_counters
    assert first_counters["batch_merges"] > 0  # the soak exercises MQO
    assert first_counters["result_cache_hits"] > 0  # and the cache


def test_worker_count_changes_only_the_timeline(chem_tiny):
    wide_responses, wide_counters = _run(chem_tiny, CLIENTS)
    narrow_responses, narrow_counters = _run(chem_tiny, 1)
    # workers=1 narrows the simulated executor, so compare the
    # execution results (rows, sources, counters), not the timeline.
    assert [rows_digest(r.rows) for r in wide_responses] == [
        rows_digest(r.rows) for r in narrow_responses
    ]
    assert [r.source for r in wide_responses] == [r.source for r in narrow_responses]
    for key in ("batch_merges", "dedup_requests", "result_cache_hits", "units_batch"):
        assert wide_counters[key] == narrow_counters[key]


def test_traced_run_matches_untraced_and_traces_deterministically(chem_tiny):
    plain_responses, plain_counters = _run(chem_tiny, CLIENTS)

    def traced():
        with obs.tracing() as recorder:
            responses, counters = _run(chem_tiny, CLIENTS)
        events = [(e.name, tuple(sorted(e.attrs.items())), e.sim_time) for e in recorder.events]
        return responses, counters, events

    first_responses, first_counters, first_events = traced()
    second_responses, second_counters, second_events = traced()

    # Tracing must not change anything observable on the simulated
    # clock.
    assert _observable(first_responses) == _observable(plain_responses)
    assert first_counters == plain_counters
    # And the trace itself is deterministic, event for event.
    assert first_events == second_events
    assert _observable(first_responses) == _observable(second_responses)
    names = {name for name, _, _ in first_events}
    assert {"request-admit", "batch-merge", "batch-split", "cache-hit"} <= names
