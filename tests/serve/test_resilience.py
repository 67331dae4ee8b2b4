"""Serve-layer resilience: retry policy, circuit breaker, degradation
tiers, and their wiring through :class:`QueryService` — every decision
on the simulated clock, every schedule a pure function of (policy,
query), and the blast radius of a failed merged batch shrunk to the
poisoned member via solo re-execution."""

from dataclasses import replace

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.core.engines import make_engine, to_analytical
from repro.core.results import rows_digest
from repro.errors import ResilienceError, ServeError, TaskFailedError
from repro.mapreduce.faults import FaultPlan
from repro.ntga.engine import execute_batch
from repro.serve.cache import StaleResultStore
from repro.serve.fingerprint import fingerprint_query
from repro.serve.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve.service import (
    DEADLINE,
    DEGRADED,
    FAILED,
    OK,
    SHED,
    QueryService,
    ServeRequest,
    ServiceConfig,
)

CHEM_QIDS = ("MG6", "MG7", "MG8", "G8")


def sparql(qid: str) -> str:
    return get_query(qid).sparql


# -- RetryPolicy ---------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ResilienceError, match="retries must be >= 0"):
        RetryPolicy(retries=-1)
    with pytest.raises(ResilienceError, match="base_backoff must be > 0"):
        RetryPolicy(base_backoff=0.0)
    with pytest.raises(ResilienceError, match="jitter must be in"):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ResilienceError, match="backoff_factor must be >= 1"):
        RetryPolicy(backoff_factor=1.1, jitter=0.25)
    with pytest.raises(ResilienceError, match="retry_index must be >= 1"):
        RetryPolicy().backoff("abc", 0)


def test_backoff_schedule_is_deterministic_and_nondecreasing():
    policy = RetryPolicy(retries=5, base_backoff=0.5, backoff_factor=2.0, jitter=0.25)
    schedule = policy.schedule("deadbeef")
    assert schedule == RetryPolicy(
        retries=5, base_backoff=0.5, backoff_factor=2.0, jitter=0.25
    ).schedule("deadbeef")
    assert len(schedule) == 5
    assert all(b > 0 for b in schedule)
    assert list(schedule) == sorted(schedule)
    # Jitter actually engages: distinct queries draw distinct schedules.
    assert schedule != policy.schedule("cafebabe")


def test_zero_jitter_gives_exact_exponential_steps():
    policy = RetryPolicy(retries=3, base_backoff=0.5, backoff_factor=2.0, jitter=0.0)
    assert policy.schedule("anything") == (0.5, 1.0, 2.0)


def test_fault_seed_is_fresh_per_attempt_and_deterministic():
    policy = RetryPolicy()
    seeds = {policy.fault_seed(11, "deadbeef", attempt) for attempt in (2, 3, 4)}
    assert len(seeds) == 3  # fresh task fates per resubmission
    assert all(s >= 0 for s in seeds)
    assert policy.fault_seed(11, "deadbeef", 2) == policy.fault_seed(11, "deadbeef", 2)
    assert policy.fault_seed(11, "deadbeef", 2) != policy.fault_seed(12, "deadbeef", 2)


# -- CircuitBreaker ------------------------------------------------------------


def test_breaker_policy_validation():
    with pytest.raises(ResilienceError, match="threshold must be >= 0"):
        BreakerPolicy(threshold=-1)
    with pytest.raises(ResilienceError, match="window must be > 0"):
        BreakerPolicy(window=0.0)
    with pytest.raises(ResilienceError, match="cooldown must be > 0"):
        BreakerPolicy(cooldown=-1.0)
    with pytest.raises(ResilienceError, match="probes must be >= 1"):
        BreakerPolicy(probes=0)


def test_breaker_trips_after_threshold_failures_in_window():
    breaker = CircuitBreaker(BreakerPolicy(threshold=3, window=8.0, cooldown=30.0))
    for t in (1.0, 2.0):
        breaker.record_failure(t)
        assert breaker.state(t) == CircuitBreaker.CLOSED
    breaker.record_failure(3.0)
    assert breaker.state(3.0) == CircuitBreaker.OPEN
    assert breaker.trips == 1
    assert not breaker.allow(10.0)  # still cooling down


def test_breaker_window_slides_old_failures_out():
    breaker = CircuitBreaker(BreakerPolicy(threshold=3, window=8.0))
    breaker.record_failure(1.0)
    breaker.record_failure(2.0)
    breaker.record_failure(11.0)  # the first two fell out of the window
    assert breaker.state(11.0) == CircuitBreaker.CLOSED
    assert breaker.trips == 0


def test_breaker_half_open_probe_success_closes():
    breaker = CircuitBreaker(BreakerPolicy(threshold=1, cooldown=30.0, probes=1))
    breaker.record_failure(0.0)
    assert breaker.state(29.9) == CircuitBreaker.OPEN
    assert breaker.state(30.0) == CircuitBreaker.HALF_OPEN
    assert breaker.half_opens == 1
    assert breaker.allow(30.0)  # the probe slot
    assert not breaker.allow(30.1)  # budget of one
    breaker.record_success(31.0)
    assert breaker.state(31.0) == CircuitBreaker.CLOSED
    assert breaker.closes == 1
    assert breaker.allow(31.0)


def test_breaker_half_open_probe_failure_retrips():
    breaker = CircuitBreaker(BreakerPolicy(threshold=1, cooldown=30.0))
    breaker.record_failure(0.0)
    assert breaker.state(30.0) == CircuitBreaker.HALF_OPEN
    breaker.record_failure(31.0)
    assert breaker.state(31.0) == CircuitBreaker.OPEN
    assert breaker.trips == 2
    # the clock is high-water: a stale stamp cannot rewind the trip
    assert breaker.state(0.5) == CircuitBreaker.OPEN


def test_breaker_threshold_zero_disables():
    breaker = CircuitBreaker(BreakerPolicy(threshold=0))
    for t in range(20):
        breaker.record_failure(float(t))
    assert breaker.state(20.0) == CircuitBreaker.CLOSED
    assert breaker.allow(20.0)
    assert breaker.trips == 0


# -- DegradationPolicy / ResilienceConfig --------------------------------------


def test_degradation_policy_validation():
    with pytest.raises(ResilienceError, match="shed_threshold must be >= 1"):
        DegradationPolicy(shed_threshold=0)


def test_resilience_spec_default_and_roundtrip():
    assert ResilienceConfig.from_spec("") == ResilienceConfig()
    assert ResilienceConfig.from_spec("default") == ResilienceConfig()
    config = ResilienceConfig.from_spec(
        "retries=3,backoff=0.1,factor=3,jitter=0.5,seed=7,"
        "threshold=2,window=4,cooldown=10,probes=2,stale=off,bypass=off,shed=5"
    )
    assert config.retry == RetryPolicy(
        retries=3, base_backoff=0.1, backoff_factor=3.0, jitter=0.5, seed=7
    )
    assert config.breaker == BreakerPolicy(
        threshold=2, window=4.0, cooldown=10.0, probes=2
    )
    assert config.degradation == DegradationPolicy(
        stale=False, bypass_batching=False, shed_threshold=5
    )
    assert ResilienceConfig.from_dict(config.as_dict()) == config


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("retries", "expected key=value"),
        ("banana=1", "unknown key"),
        ("retries=-1", "retries must be >= 0"),
        ("retries=two", "invalid literal"),
        ("stale=maybe", "stale must be on/off"),
        ("jitter=2", "jitter must be in"),
    ],
)
def test_resilience_spec_errors_are_one_line_diagnostics(spec, fragment):
    with pytest.raises(ResilienceError) as excinfo:
        ResilienceConfig.from_spec(spec)
    message = str(excinfo.value)
    assert "invalid resilience spec" in message
    assert fragment in message
    assert "\n" not in message


# -- StaleResultStore ----------------------------------------------------------


def test_stale_store_keeps_last_known_good_per_engine():
    store = StaleResultStore(4)
    store.put("d1", "rapid-analytics", 0, [{"a": 1}])
    store.put("d1", "rapid-analytics", 3, [{"a": 2}])
    assert store.lookup("d1", "rapid-analytics") == (3, [{"a": 2}])
    assert store.lookup("d1", "hive-naive") is None
    assert len(store) == 1
    # defensive copies both ways
    version, rows = store.lookup("d1", "rapid-analytics")
    rows.append({"a": 99})
    assert store.lookup("d1", "rapid-analytics") == (3, [{"a": 2}])


# -- ServeRequest validation (satellite: fail at construction) -----------------


def test_serve_request_rejects_nonpositive_deadline():
    with pytest.raises(ServeError, match="request deadline must be > 0"):
        ServeRequest("SELECT * WHERE { ?s ?p ?o }", deadline=0.0)
    with pytest.raises(ServeError, match="request deadline must be > 0"):
        ServeRequest("SELECT * WHERE { ?s ?p ?o }", deadline=-1.0)


# -- dispatch-time deadline enforcement ----------------------------------------


def test_dispatch_deadline_charges_no_cluster_cost(chem_tiny):
    """A request whose queue wait already exceeds its deadline at the
    window close fails *before* dispatch: no execution, no cost."""
    service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
    responses = service.serve(
        [ServeRequest(sparql("MG6"), arrival=0.01, deadline=0.1)]
    )
    assert responses[0].status == DEADLINE
    assert "before dispatch" in responses[0].error
    assert responses[0].rows is None
    counters = service.counter_snapshot()
    assert counters["deadline_exceeded"] == 1
    assert counters["deadline_exceeded_at_dispatch"] == 1
    assert service.executed_cost_seconds == 0.0


def test_post_execution_deadline_not_counted_as_dispatch(chem_tiny):
    """A deadline that only expires during execution is charged and
    counted, but not in the at-dispatch bucket — the regression guard
    for the dispatch/post-execution split."""
    service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
    responses = service.serve(
        [ServeRequest(sparql("MG6"), arrival=0.01, deadline=1.0)]
    )
    assert responses[0].status == DEADLINE
    assert "before dispatch" not in responses[0].error
    counters = service.counter_snapshot()
    assert counters["deadline_exceeded"] == 1
    assert counters["deadline_exceeded_at_dispatch"] == 0
    assert service.executed_cost_seconds > 0.0


# -- load shedding -------------------------------------------------------------


def test_shed_drops_lowest_priority_first(chem_tiny):
    resilience = ResilienceConfig(
        degradation=DegradationPolicy(shed_threshold=1)
    )
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=chem_config(), resilience=resilience),
    )
    responses = service.serve(
        [
            ServeRequest(sparql("MG6"), arrival=0.01, label="low", priority=0),
            ServeRequest(sparql("MG7"), arrival=0.02, label="high", priority=2),
            ServeRequest(sparql("MG8"), arrival=0.03, label="mid", priority=1),
        ]
    )
    by_label = {r.label: r for r in responses}
    assert by_label["high"].status == OK
    assert by_label["low"].status == SHED and by_label["mid"].status == SHED
    assert "load shed" in by_label["low"].error
    assert service.counter_snapshot()["shed_requests"] == 2


def test_shed_breaks_priority_ties_by_arrival(chem_tiny):
    resilience = ResilienceConfig(degradation=DegradationPolicy(shed_threshold=1))
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=chem_config(), resilience=resilience),
    )
    responses = service.serve(
        [
            ServeRequest(sparql("MG6"), arrival=0.01, label="early"),
            ServeRequest(sparql("MG7"), arrival=0.02, label="late"),
        ]
    )
    by_label = {r.label: r for r in responses}
    assert by_label["early"].status == OK  # same priority: earliest survives
    assert by_label["late"].status == SHED


# -- stale-answer degradation tier ---------------------------------------------


def _always_failing_config():
    return replace(
        chem_config(),
        fault_plan=FaultPlan(seed=0, task_failure_rate=0.999, max_attempts=1),
    )


def test_exhausted_retries_serve_stale_answer(chem_tiny):
    resilience = ResilienceConfig(retry=RetryPolicy(retries=0))
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=_always_failing_config(), resilience=resilience),
    )
    rows = [{"marker": "stale"}]
    digest = fingerprint_query(sparql("MG6")).digest
    service.stale_results.put(digest, service.config.engine, 0, rows)
    response = service.query(sparql("MG6"))
    assert response.status == DEGRADED
    assert response.source == "stale-cache"
    assert response.stale_version == 0
    assert response.rows == rows
    counters = service.counter_snapshot()
    assert counters["degraded_stale"] == 1
    assert counters["failed"] == 0


def test_no_stale_answer_means_failure(chem_tiny):
    resilience = ResilienceConfig(retry=RetryPolicy(retries=0))
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=_always_failing_config(), resilience=resilience),
    )
    response = service.query(sparql("MG6"))
    assert response.status == FAILED
    assert service.counter_snapshot()["failed"] == 1


def test_stale_tier_can_be_disabled(chem_tiny):
    resilience = ResilienceConfig(
        retry=RetryPolicy(retries=0),
        degradation=DegradationPolicy(stale=False),
    )
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=_always_failing_config(), resilience=resilience),
    )
    digest = fingerprint_query(sparql("MG6")).digest
    service.stale_results.put(digest, service.config.engine, 0, [{"marker": "stale"}])
    response = service.query(sparql("MG6"))
    assert response.status == FAILED


def test_successful_answers_refresh_the_stale_store(chem_tiny):
    service = QueryService(
        chem_tiny,
        ServiceConfig(engine_config=chem_config(), resilience=ResilienceConfig()),
    )
    response = service.query(sparql("MG7"))
    assert response.status == OK
    digest = fingerprint_query(sparql("MG7")).digest
    stored = service.stale_results.lookup(digest, service.config.engine)
    assert stored is not None
    version, rows = stored
    assert version == chem_tiny.version
    assert rows_digest(rows) == rows_digest(response.rows)


# -- blast-radius isolation ----------------------------------------------------

# Pinned empirically: under FaultPlan(seed=30, rate=0.01, max_attempts=1)
# the merged four-query batch crashes, and each member's solo
# re-execution (fresh derived fault seed) succeeds first try.
_ISOLATION_PLAN = FaultPlan(seed=30, task_failure_rate=0.01, max_attempts=1)


def _chem_requests():
    return [
        ServeRequest(sparql(qid), arrival=0.01 * (i + 1), label=qid)
        for i, qid in enumerate(CHEM_QIDS)
    ]


@pytest.fixture(scope="module")
def solo_digests(chem_tiny):
    config = chem_config()
    engine = make_engine("rapid-analytics")
    return {
        qid: rows_digest(
            engine.execute(to_analytical(sparql(qid)), chem_tiny, config).rows
        )
        for qid in CHEM_QIDS
    }


def test_without_resilience_one_batch_failure_fails_every_member(chem_tiny):
    """Characterization of the fail-fast blast radius: with no retry
    budget, one crash inside the merged unit takes down all four member
    requests."""
    service = QueryService(
        chem_tiny,
        ServiceConfig(
            engine_config=replace(chem_config(), fault_plan=_ISOLATION_PLAN)
        ),
    )
    responses = service.serve(_chem_requests())
    assert [r.status for r in responses] == [FAILED] * len(CHEM_QIDS)
    assert service.counters["batch_merges"] == 1


def test_failed_fail_fast_unit_is_charged_its_burnt_time(chem_tiny):
    """Regression: the cluster burned the committed prefix plus the
    aborted job's wasted seconds before the unit failed, so the unit
    holds its simulated worker and is billed for exactly that — not for
    zero seconds, as the fail-fast path used to."""
    engine_config = replace(chem_config(), fault_plan=_ISOLATION_PLAN)
    with pytest.raises(TaskFailedError) as exc_info:
        execute_batch(
            [to_analytical(sparql(qid)) for qid in CHEM_QIDS], chem_tiny, engine_config
        )
    error = exc_info.value
    burnt = error.wasted_seconds + error.partial_stats.total_cost
    assert burnt > 0.0

    service = QueryService(chem_tiny, ServiceConfig(engine_config=engine_config))
    close = service.config.batch_window
    responses = service.serve(_chem_requests())
    assert [r.status for r in responses] == [FAILED] * len(CHEM_QIDS)
    assert service.executed_cost_seconds == burnt
    assert max(service._worker_free) == close + burnt
    assert {r.completed for r in responses} == {close + burnt}


def test_isolation_reexecutes_batch_members_solo(chem_tiny, solo_digests):
    """With resilience on, the same failing batch is split: every member
    re-executes solo under the retry budget and answers bit-identical to
    the fault-free baseline."""
    resilience = ResilienceConfig(breaker=BreakerPolicy(threshold=0))
    service = QueryService(
        chem_tiny,
        ServiceConfig(
            engine_config=replace(chem_config(), fault_plan=_ISOLATION_PLAN),
            resilience=resilience,
        ),
    )
    responses = service.serve(_chem_requests())
    assert all(r.status == OK for r in responses)
    for response in responses:
        assert response.attempts == 2
        assert response.retry_backoff > 0.0
        assert rows_digest(response.rows) == solo_digests[response.label]
    counters = service.counter_snapshot()
    assert counters["isolated_groups"] == len(CHEM_QIDS)
    assert counters["retries"] == len(CHEM_QIDS)
    assert counters["retry_successes"] == len(CHEM_QIDS)
    assert counters["retry_cost_seconds"] > 0.0


def test_resilient_serving_is_deterministic(chem_tiny):
    """Same graph, same config, same arrivals: byte-identical outcomes,
    counters, and costs across two independent service instances."""

    def run():
        resilience = ResilienceConfig(breaker=BreakerPolicy(threshold=0))
        service = QueryService(
            chem_tiny,
            ServiceConfig(
                engine_config=replace(chem_config(), fault_plan=_ISOLATION_PLAN),
                resilience=resilience,
            ),
        )
        responses = service.serve(_chem_requests())
        return (
            [(r.status, r.attempts, r.completed, rows_digest(r.rows)) for r in responses],
            service.counter_snapshot(),
            service.executed_cost_seconds,
        )

    assert run() == run()
