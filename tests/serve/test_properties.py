"""Property tests for the sharing layers: whatever the mix, order, and
arrival pattern, every sharing lever (dedup, result cache, MQO batching)
returns rows bit-identical (including order) to a cold solo execution."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.catalog import get_query
from repro.bench.harness import chem_config
from repro.core.engines import make_engine, to_analytical
from repro.core.results import rows_digest
from repro.serve.service import OK, QueryService, ServeRequest, ServiceConfig

QIDS = ("MG6", "MG7", "MG8", "G8")

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

mixes = st.lists(st.sampled_from(QIDS), min_size=1, max_size=6)
seeds = st.integers(min_value=0, max_value=2**16)


@pytest.fixture(scope="module")
def solo_digests(chem_tiny):
    config = chem_config()
    engine = make_engine("rapid-analytics")
    return {
        qid: rows_digest(
            engine.execute(to_analytical(get_query(qid).sparql), chem_tiny, config).rows
        )
        for qid in QIDS
    }


def _requests(mix, seed):
    import random

    rng = random.Random(seed)
    clock = 0.0
    out = []
    for qid in mix:
        clock += 0.05 + rng.random() * 0.4  # spans several 0.25s windows
        out.append(
            ServeRequest(get_query(qid).sparql, arrival=round(clock, 6), label=qid)
        )
    return out


def _serve(chem_tiny, mix, seed, **overrides):
    config = ServiceConfig(engine_config=chem_config(), **overrides)
    service = QueryService(chem_tiny, config)
    return service.serve(_requests(mix, seed))


@_SETTINGS
@given(mix=mixes, seed=seeds)
def test_batched_rows_equal_unbatched_equal_solo(chem_tiny, solo_digests, mix, seed):
    batched = _serve(chem_tiny, mix, seed, enable_batching=True)
    unbatched = _serve(chem_tiny, mix, seed, enable_batching=False)
    assert [r.status for r in batched] == [OK] * len(mix)
    assert [r.status for r in unbatched] == [OK] * len(mix)
    for got_batched, got_unbatched, qid in zip(batched, unbatched, mix):
        want = solo_digests[qid]
        assert rows_digest(got_batched.rows) == want
        assert rows_digest(got_unbatched.rows) == want


@_SETTINGS
@given(mix=mixes, seed=seeds)
def test_cache_hits_are_bit_identical_to_cold_runs(chem_tiny, mix, seed):
    service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
    cold = service.serve(_requests(mix, seed))
    # Re-submit the same queries later: every answer must now come from
    # a sharing layer, byte-for-byte what the cold run produced.
    reheat = [
        ServeRequest(r.text, arrival=r.arrival + 10_000.0, label=r.label)
        for r in _requests(mix, seed)
    ]
    warm = service.serve(reheat)
    assert all(r.status == OK for r in cold + warm)
    assert all(r.source in ("result-cache", "dedup") for r in warm)
    for cold_response, warm_response in zip(cold, warm):
        assert rows_digest(warm_response.rows) == rows_digest(
            cold_response.rows
        )
