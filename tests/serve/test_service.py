"""QueryService behaviour: caching, dedup, MQO batching, admission,
deadlines, failures, and the full engine matrix — every answer checked
bit-identical (rows *and* order) against a cold solo execution."""

from dataclasses import replace

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import bsbm_config, chem_config
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.core.results import rows_digest
from repro.errors import ServeError
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan
from repro.serve.service import (
    DEADLINE,
    FAILED,
    OK,
    REJECTED,
    QueryService,
    ServeRequest,
    ServiceConfig,
)

CHEM_QIDS = ("MG6", "MG7", "MG8", "G8")


def sparql(qid: str) -> str:
    return get_query(qid).sparql


@pytest.fixture(scope="module")
def chem_service_config():
    return ServiceConfig(engine_config=chem_config())


@pytest.fixture(scope="module")
def solo_digests(chem_tiny):
    """Cold solo row digests (order-sensitive) — the bit-identity oracle."""
    config = chem_config()
    engine = make_engine("rapid-analytics")
    return {
        qid: rows_digest(
            engine.execute(to_analytical(sparql(qid)), chem_tiny, config).rows
        )
        for qid in CHEM_QIDS
    }


def test_single_query_runs_solo(chem_tiny, chem_service_config, solo_digests):
    service = QueryService(chem_tiny, chem_service_config)
    response = service.query(sparql("MG6"), label="MG6")
    assert response.status == OK
    assert response.source == "solo"
    assert response.batch_size == 1
    assert response.latency > 0
    assert rows_digest(response.rows) == solo_digests["MG6"]
    counters = service.counter_snapshot()
    assert counters["units_solo"] == 1 and counters["units_batch"] == 0


def test_result_cache_hit_is_bit_identical_and_free(
    chem_tiny, chem_service_config, solo_digests
):
    service = QueryService(chem_tiny, chem_service_config)
    cold = service.query(sparql("MG7"))
    hit = service.query(sparql("MG7"))
    assert hit.status == OK and hit.source == "result-cache"
    assert rows_digest(hit.rows) == rows_digest(cold.rows) == solo_digests["MG7"]
    assert hit.unit_cost == 0.0
    counters = service.counter_snapshot()
    assert counters["result_cache_hits"] == 1
    assert service.executed_cost_seconds == pytest.approx(cold.unit_cost)


def test_plan_cache_shares_spelling_variants(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    first = service.query(sparql("MG6"))
    variant = "\n".join(line.strip() for line in sparql("MG6").splitlines())
    second = service.query(variant)
    assert second.fingerprint == first.fingerprint
    assert second.source == "result-cache"  # canonical digest keyed the answer
    assert service.plan_cache.hits == 0  # new raw text: a plan miss...
    third = service.query(variant)
    assert service.plan_cache.hits == 1  # ...but the exact text now hits


def test_same_window_duplicates_dedup(chem_tiny, chem_service_config, solo_digests):
    service = QueryService(chem_tiny, chem_service_config)
    responses = service.serve(
        [ServeRequest(sparql("MG8"), arrival=0.01), ServeRequest(sparql("MG8"), arrival=0.02)]
    )
    assert [r.status for r in responses] == [OK, OK]
    assert responses[0].source == "solo" and responses[1].source == "dedup"
    assert service.counters["dedup_requests"] == 1
    assert service.counters["units_solo"] == 1  # executed once
    for response in responses:
        assert rows_digest(response.rows) == solo_digests["MG8"]


def test_overlapping_queries_batch_and_split(chem_tiny, chem_service_config, solo_digests):
    service = QueryService(chem_tiny, chem_service_config)
    responses = service.serve(
        [ServeRequest(sparql(qid), arrival=0.01 * (i + 1), label=qid)
         for i, qid in enumerate(CHEM_QIDS)]
    )
    assert all(r.status == OK for r in responses)
    assert all(r.source == "batch" for r in responses)
    assert all(r.batch_size == len(CHEM_QIDS) for r in responses)
    for response in responses:
        assert rows_digest(response.rows) == solo_digests[response.label]
    counters = service.counter_snapshot()
    assert counters["batch_merges"] == 1
    assert counters["batch_merged_requests"] == len(CHEM_QIDS)
    assert counters["units_batch"] == 1 and counters["units_solo"] == 0
    # Sharing one composite must beat four cold solo runs.
    solo_total = sum(
        make_engine("rapid-analytics")
        .execute(to_analytical(sparql(qid)), chem_tiny, chem_config())
        .cost_seconds
        for qid in CHEM_QIDS
    )
    assert service.executed_cost_seconds < solo_total


def test_non_overlapping_queries_stay_solo(bsbm_small):
    service = QueryService(bsbm_small, ServiceConfig(engine_config=bsbm_config()))
    responses = service.serve(
        [ServeRequest(sparql("G1"), arrival=0.01), ServeRequest(sparql("G2"), arrival=0.02)]
    )
    assert all(r.status == OK and r.source == "solo" for r in responses)
    assert service.counters["batch_merges"] == 0
    assert service.counters["units_solo"] == 2


def test_batching_disabled_runs_everything_solo(chem_tiny):
    service = QueryService(
        chem_tiny, ServiceConfig(engine_config=chem_config(), enable_batching=False)
    )
    responses = service.serve(
        [ServeRequest(sparql("MG6"), arrival=0.01), ServeRequest(sparql("MG7"), arrival=0.02)]
    )
    assert all(r.source == "solo" for r in responses)
    assert service.counters["units_solo"] == 2


def test_admission_control_rejects_over_cap(chem_tiny):
    service = QueryService(
        chem_tiny, ServiceConfig(engine_config=chem_config(), max_pending=1)
    )
    responses = service.serve(
        [ServeRequest(sparql("MG6"), arrival=0.01 * (i + 1)) for i in range(3)]
    )
    assert [r.status for r in responses] == [OK, REJECTED, REJECTED]
    rejected = responses[1]
    assert rejected.rows is None and "admission control" in rejected.error
    assert service.counters["rejected"] == 2
    # Once the first request's work has drained, admission reopens.
    drained = responses[0].completed + 1.0
    late = service.serve([ServeRequest(sparql("MG6"), arrival=drained)])[0]
    assert late.status == OK and late.source == "result-cache"


def test_deadline_exceeded_drops_rows(chem_tiny):
    service = QueryService(
        chem_tiny, ServiceConfig(engine_config=chem_config(), deadline=0.001)
    )
    response = service.query(sparql("MG6"))
    assert response.status == DEADLINE
    assert response.rows is None and "deadline exceeded" in response.error
    assert service.counters["deadline_exceeded"] == 1


def test_per_request_deadline_overrides_config(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    responses = service.serve(
        [ServeRequest(sparql("MG6"), arrival=0.01, deadline=1e-6)]
    )
    assert responses[0].status == DEADLINE


def test_unparseable_query_fails_that_request_only(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    responses = service.serve(
        [
            ServeRequest("SELECT WHERE {{{", arrival=0.01),
            ServeRequest(sparql("MG6"), arrival=0.02),
        ]
    )
    assert responses[0].status == FAILED and responses[0].rows is None
    assert responses[1].status == OK
    assert service.counters["failed"] == 1


def test_negative_arrival_rejected(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    with pytest.raises(ServeError, match="arrival"):
        service.serve([ServeRequest(sparql("MG6"), arrival=-1.0)])


@pytest.mark.parametrize("arrival", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_arrival_rejected_where_the_request_is_built(arrival):
    with pytest.raises(ServeError, match="arrival must be >= 0 and finite"):
        ServeRequest(sparql("MG6"), arrival=arrival)


def test_a_rejected_batch_burns_no_request_id(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    with pytest.raises(ServeError, match="arrival"):
        service.serve(
            [ServeRequest(sparql("MG6"), arrival=0.01), ServeRequest(sparql("MG7"), arrival=-1.0)]
        )
    assert service.query(sparql("MG6")).request_id == 0


def test_arrivals_cannot_land_in_closed_windows(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    service.query(sparql("MG6"))
    stale = service.serve([ServeRequest(sparql("MG6"), arrival=0.0)])[0]
    assert stale.arrival >= service.config.batch_window  # clamped forward
    assert stale.status == OK


def test_invalid_config_rejected():
    with pytest.raises(ServeError):
        ServiceConfig(engine="no-such-engine")
    with pytest.raises(ServeError):
        ServiceConfig(workers=0)
    with pytest.raises(ServeError):
        ServiceConfig(batch_window=0.0)
    with pytest.raises(ServeError, match="batch_window must be > 0 and finite"):
        ServiceConfig(batch_window=float("inf"))
    with pytest.raises(ServeError):
        ServiceConfig(deadline=-1.0)


@pytest.mark.parametrize("engine", PAPER_ENGINES + ("reference",))
def test_every_engine_serves_correct_rows(chem_tiny, engine):
    config = chem_config()
    service = QueryService(
        chem_tiny, ServiceConfig(engine=engine, engine_config=config)
    )
    response = service.query(sparql("MG7"), label="MG7")
    assert response.status == OK
    solo = make_engine(engine).execute(to_analytical(sparql("MG7")), chem_tiny, config)
    assert rows_digest(response.rows) == rows_digest(solo.rows)


def test_faults_and_recovery_compose_with_batching(chem_tiny, solo_digests):
    faulty = replace(
        chem_config(),
        fault_plan=FaultPlan(seed=13, task_failure_rate=0.05),
        recovery=RecoveryPolicy(max_resubmissions=24),
    )
    service = QueryService(chem_tiny, ServiceConfig(engine_config=faulty))
    responses = service.serve(
        [ServeRequest(sparql(qid), arrival=0.01 * (i + 1), label=qid)
         for i, qid in enumerate(CHEM_QIDS)]
    )
    assert all(r.status == OK for r in responses)
    for response in responses:
        assert rows_digest(response.rows) == solo_digests[response.label]
    assert service.counters["batch_merges"] == 1


def test_counter_snapshot_exposes_cache_stats(chem_tiny, chem_service_config):
    service = QueryService(chem_tiny, chem_service_config)
    service.query(sparql("MG6"))
    snapshot = service.counter_snapshot()
    for key in (
        "requests",
        "admitted",
        "plan_cache_hits",
        "plan_cache_misses",
        "result_cache_capacity",
        "result_cache_size",
    ):
        assert key in snapshot
    assert snapshot["requests"] == snapshot["admitted"] == 1
