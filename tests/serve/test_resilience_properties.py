"""Property tests for the resilience layer.

Three invariants the golden alone cannot pin:

1. Retry schedules are pure functions of (policy, query) and
   non-decreasing in the attempt number — guaranteed structurally by the
   ``backoff_factor >= 1 + jitter`` validation, whatever the jitter
   draws.
2. Availability is monotone non-decreasing in the retry budget at a
   fixed fault seed and rate: adding retries can only convert failures
   into answers, never the reverse.  Requires the breaker disabled
   (``threshold=0``) and no deadlines — both features deliberately trade
   availability for other goods.
3. ``resilience=None`` *is* the null policy: the same responses and
   counters as the explicit zero-retry / never-tripping-breaker /
   no-degradation config, fault-free and under any fault seed.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.mapreduce.faults import FaultPlan
from repro.serve.resilience import (
    BreakerPolicy,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve.service import DEGRADED, OK, QueryService, ServeRequest, ServiceConfig

QIDS = ("MG6", "MG7", "MG8", "G8")

digests = st.text(
    alphabet="0123456789abcdef", min_size=4, max_size=32
)
jitters = st.floats(min_value=0.0, max_value=0.9, exclude_max=True)


@st.composite
def retry_policies(draw):
    jitter = draw(jitters)
    return RetryPolicy(
        retries=draw(st.integers(min_value=1, max_value=6)),
        base_backoff=draw(st.floats(min_value=0.01, max_value=5.0)),
        backoff_factor=draw(
            st.floats(min_value=1.0 + jitter, max_value=4.0)
        ),
        jitter=jitter,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(max_examples=50, deadline=None)
@given(policy=retry_policies(), digest=digests)
def test_schedule_is_deterministic_and_nondecreasing(policy, digest):
    schedule = policy.schedule(digest)
    # Deterministic: a freshly constructed equal policy reproduces it.
    clone = RetryPolicy(
        retries=policy.retries,
        base_backoff=policy.base_backoff,
        backoff_factor=policy.backoff_factor,
        jitter=policy.jitter,
        seed=policy.seed,
    )
    assert clone.schedule(digest) == schedule
    # Non-decreasing in the attempt number, whatever the jitter draws.
    assert len(schedule) == policy.retries
    assert all(b > 0 for b in schedule)
    assert list(schedule) == sorted(schedule)


_SERVE_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _availability(graph, fault_plan, retries):
    resilience = ResilienceConfig(
        retry=RetryPolicy(retries=retries),
        breaker=BreakerPolicy(threshold=0),  # monotonicity needs no breaker
    )
    config = ServiceConfig(
        engine_config=replace(chem_config(), fault_plan=fault_plan),
        resilience=resilience,
    )
    service = QueryService(graph, config)
    responses = service.serve(
        [
            ServeRequest(get_query(qid).sparql, arrival=0.01 * (i + 1), label=qid)
            for i, qid in enumerate(QIDS)
        ]
    )
    return sum(1 for r in responses if r.status in (OK, DEGRADED))


@_SERVE_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.sampled_from((0.01, 0.02, 0.05)),
)
def test_availability_is_monotone_in_retry_budget(chem_tiny, seed, rate):
    fault_plan = FaultPlan(seed=seed, task_failure_rate=rate, max_attempts=1)
    served = [
        _availability(chem_tiny, fault_plan, retries) for retries in (0, 1, 2)
    ]
    assert served == sorted(served)


NULL_POLICY = ResilienceConfig(
    retry=RetryPolicy(retries=0),
    breaker=BreakerPolicy(threshold=0),
    degradation=DegradationPolicy(
        stale=False, bypass_batching=False, shed_threshold=None
    ),
)


def _serve(graph, fault_plan, resilience):
    service = QueryService(
        graph,
        ServiceConfig(
            engine_config=replace(chem_config(), fault_plan=fault_plan),
            workers=2,
            resilience=resilience,
        ),
    )
    # Three windows with repeats: merged batches, result-cache hits and
    # (under faults) failed units queued ahead of later ones all occur.
    responses = service.serve(
        [
            ServeRequest(get_query(qid).sparql, arrival=0.1 * i, label=qid)
            for i, qid in enumerate(QIDS + QIDS[:2] + QIDS[2:])
        ]
    )
    observable = [
        (r.status, r.rows, r.started, r.completed, r.latency, r.source, r.attempts)
        for r in responses
    ]
    return observable, service.counter_snapshot(), service.executed_cost_seconds


@_SERVE_SETTINGS
@example(fault_plan=None)
@given(
    fault_plan=st.one_of(
        st.none(),
        st.builds(
            FaultPlan,
            seed=st.integers(min_value=0, max_value=2**16),
            task_failure_rate=st.sampled_from((0.01, 0.02, 0.05)),
            max_attempts=st.just(1),
        ),
    )
)
def test_no_resilience_is_the_null_policy(chem_tiny, fault_plan):
    assert _serve(chem_tiny, fault_plan, None) == _serve(
        chem_tiny, fault_plan, NULL_POLICY
    )
