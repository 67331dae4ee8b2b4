"""Unit tests for cost model and size estimation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.cost import ClusterConfig, CostModel, estimate_size
from repro.rdf.terms import BNode, IRI, Literal
from repro.rdf.triples import Triple


class TestEstimateSize:
    @pytest.mark.parametrize(
        "value",
        [None, True, 5, 2.5, "hello", IRI("urn:a"), BNode("b"), Literal("x"),
         Literal("5", datatype="urn:int"), Literal("x", language="en"),
         (1, 2), [1, 2], {1: 2}, {1, 2}],
    )
    def test_positive(self, value):
        assert estimate_size(value) > 0

    def test_string_scales_with_length(self):
        assert estimate_size("x" * 100) > estimate_size("x")

    def test_triple_sums_components(self):
        triple = Triple(IRI("urn:s"), IRI("urn:p"), Literal("o"))
        assert estimate_size(triple) >= (
            estimate_size(triple.subject)
            + estimate_size(triple.property)
            + estimate_size(triple.object)
        )

    def test_respects_estimated_size_protocol(self):
        class Sized:
            def estimated_size(self):
                return 1234

        assert estimate_size(Sized()) == 1234

    def test_deterministic(self):
        value = {"a": [1, 2, (IRI("urn:x"), Literal("y"))]}
        assert estimate_size(value) == estimate_size(value)


class TestClusterConfig:
    def test_slots(self):
        cluster = ClusterConfig(nodes=5, map_slots_per_node=3, reduce_slots_per_node=2)
        assert cluster.map_slots == 15
        assert cluster.reduce_slots == 10

    def test_splits(self):
        cluster = ClusterConfig(block_size=100)
        # Zero-byte files occupy no blocks: no mapper is charged for
        # them (the runner floors a job's *total* tasks at one).
        assert cluster.splits_for(0) == 0
        assert cluster.splits_for(100) == 1
        assert cluster.splits_for(101) == 2
        assert cluster.splits_for(1000) == 10

    def test_zero_map_tasks_still_charges_one_wave(self):
        cost = CostModel()
        cluster = ClusterConfig()
        empty = cost.job_cost(
            cluster,
            input_bytes=0,
            shuffle_bytes=0,
            output_bytes=0,
            map_tasks=0,
            reduce_tasks=0,
        )
        assert empty >= cost.map_only_startup + cost.map_task_overhead


class TestCostModel:
    def _cost(self, **kwargs):
        defaults = dict(
            input_bytes=0, shuffle_bytes=0, output_bytes=0, map_tasks=1, reduce_tasks=0
        )
        defaults.update(kwargs)
        return CostModel().job_cost(ClusterConfig(), **defaults)

    def test_startup_floor(self):
        assert self._cost() >= CostModel().map_only_startup
        assert self._cost(reduce_tasks=1) >= CostModel().job_startup

    def test_map_only_startup_is_cheaper(self):
        assert CostModel().map_only_startup < CostModel().job_startup

    def test_monotone_in_input(self):
        assert self._cost(input_bytes=10**6, map_tasks=1) > self._cost(input_bytes=10**3, map_tasks=1)

    def test_monotone_in_shuffle(self):
        base = self._cost(reduce_tasks=1)
        assert self._cost(shuffle_bytes=10**6, reduce_tasks=1) > base

    def test_map_only_cheaper_than_full(self):
        full = self._cost(input_bytes=1000, shuffle_bytes=1000, output_bytes=100, reduce_tasks=4)
        map_only = self._cost(input_bytes=1000, output_bytes=100, reduce_tasks=0)
        assert map_only < full

    def test_more_mappers_faster_scan(self):
        """The paper's ORC observation: fewer mappers = worse utilization."""
        few = self._cost(input_bytes=10**7, map_tasks=1)
        many = self._cost(input_bytes=10**7, map_tasks=20)
        assert many < few


@settings(max_examples=60, deadline=None)
@given(
    input_bytes=st.integers(0, 10**8),
    shuffle_bytes=st.integers(0, 10**8),
    output_bytes=st.integers(0, 10**8),
    map_tasks=st.integers(1, 200),
    reduce_tasks=st.integers(0, 50),
)
def test_cost_always_positive_and_finite(input_bytes, shuffle_bytes, output_bytes, map_tasks, reduce_tasks):
    cost = CostModel().job_cost(
        ClusterConfig(),
        input_bytes=input_bytes,
        shuffle_bytes=shuffle_bytes,
        output_bytes=output_bytes,
        map_tasks=map_tasks,
        reduce_tasks=reduce_tasks,
    )
    assert cost > 0
    assert cost < float("inf")


def _seed_job_cost(model, cluster, *, input_bytes, shuffle_bytes, output_bytes,
                   map_tasks, reduce_tasks, exchange_bytes):
    """The straight-line formula ``job_cost`` had before it became the
    fold of its phases: every committed cost holds this addition order."""
    map_waves = max(1, math.ceil(map_tasks / cluster.map_slots))
    map_parallelism = max(1, min(map_tasks, cluster.map_slots))
    cost = model.job_startup if reduce_tasks > 0 else model.map_only_startup
    cost += map_waves * model.map_task_overhead
    cost += input_bytes / (model.scan_rate * map_parallelism)
    if exchange_bytes > 0:
        receive = max(1, min(reduce_tasks or map_tasks, cluster.reduce_slots))
        cost += exchange_bytes / (model.exchange_rate * receive)
    if reduce_tasks > 0:
        reduce_parallelism = max(1, min(reduce_tasks, cluster.reduce_slots))
        cost += math.ceil(reduce_tasks / cluster.reduce_slots) * model.reduce_task_overhead
        cost += shuffle_bytes / (model.shuffle_rate * reduce_parallelism)
        cost += output_bytes / (model.write_rate * reduce_parallelism)
    else:
        cost += output_bytes / (model.write_rate * map_parallelism)
    return cost


_VOLUME = st.one_of(st.just(0), st.integers(0, 10**9))


@settings(max_examples=300, deadline=None)
@given(
    cluster=st.builds(
        ClusterConfig,
        nodes=st.integers(1, 80),
        map_slots_per_node=st.integers(1, 4),
        reduce_slots_per_node=st.integers(1, 4),
    ),
    input_bytes=_VOLUME,
    shuffle_bytes=_VOLUME,
    output_bytes=_VOLUME,
    map_tasks=st.integers(0, 5000),
    reduce_tasks=st.one_of(st.just(0), st.integers(0, 500)),
    exchange_bytes=st.one_of(st.just(0), st.integers(1, 10**8)),
)
def test_job_cost_is_the_ordered_fold_of_its_phases(cluster, **volumes):
    """``==``, not ``approx``: the job cost *is* its phases added in the
    fixed order map → exchange → reduce → shuffle → materialize, and
    that order reproduces the seed formula bit for bit."""
    model = CostModel()
    seconds = dict(model.job_cost_phases(cluster, **volumes))
    folded = 0.0
    for phase in ("map", "exchange", "reduce", "shuffle", "materialize"):
        folded += seconds.pop(phase, 0.0)
    assert seconds == {}
    cost = model.job_cost(cluster, **volumes)
    assert cost == folded
    assert cost == _seed_job_cost(model, cluster, **volumes)


class TestExchangePhaseDecomposition:
    """Regression: the sharded exchange term must appear as its own
    ``exchange`` phase in :meth:`CostModel.job_cost_phases` — not lumped
    into the shuffle term — and the phase decomposition must always sum
    to :meth:`CostModel.job_cost` for the same arguments."""

    GRID = [
        # (input, shuffle, output, map_tasks, reduce_tasks, exchange)
        (0, 0, 0, 1, 0, 0),                       # empty map-only
        (10**5, 0, 10**4, 4, 0, 0),               # map-only, no exchange
        (10**5, 0, 10**4, 4, 0, 3_000),           # map-only with exchange
        (10**6, 5 * 10**5, 10**5, 8, 5, 0),       # full, no exchange
        (10**6, 5 * 10**5, 10**5, 8, 5, 40_000),  # full with exchange
        (10**7, 10**6, 10**6, 40, 10, 123_456),   # big sharded assemble
        (0, 0, 0, 1, 1, 1),                       # minimal exchange
    ]

    @pytest.mark.parametrize("params", GRID)
    def test_phases_sum_to_job_cost(self, params):
        input_bytes, shuffle_bytes, output_bytes, map_tasks, reduce_tasks, xb = params
        model, cluster = CostModel(), ClusterConfig()
        kwargs = dict(
            input_bytes=input_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=output_bytes,
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
            exchange_bytes=xb,
        )
        phases = model.job_cost_phases(cluster, **kwargs)
        total = model.job_cost(cluster, **kwargs)
        assert sum(seconds for _, seconds in phases) == pytest.approx(total)

    @pytest.mark.parametrize("params", GRID)
    def test_exchange_phase_gated_on_bytes(self, params):
        input_bytes, shuffle_bytes, output_bytes, map_tasks, reduce_tasks, xb = params
        phases = dict(
            CostModel().job_cost_phases(
                ClusterConfig(),
                input_bytes=input_bytes,
                shuffle_bytes=shuffle_bytes,
                output_bytes=output_bytes,
                map_tasks=map_tasks,
                reduce_tasks=reduce_tasks,
                exchange_bytes=xb,
            )
        )
        if xb > 0:
            assert phases["exchange"] > 0
        else:
            # Unsharded decompositions keep their historical shape.
            assert "exchange" not in phases

    def test_exchange_not_lumped_into_shuffle(self):
        """Adding exchange bytes must leave the shuffle phase untouched
        and surface entirely in the exchange phase."""
        model, cluster = CostModel(), ClusterConfig()
        kwargs = dict(
            input_bytes=10**6,
            shuffle_bytes=5 * 10**5,
            output_bytes=10**5,
            map_tasks=8,
            reduce_tasks=5,
        )
        without = dict(model.job_cost_phases(cluster, **kwargs, exchange_bytes=0))
        with_xb = dict(
            model.job_cost_phases(cluster, **kwargs, exchange_bytes=64_000)
        )
        assert with_xb["shuffle"] == without["shuffle"]
        assert with_xb["map"] == without["map"]
        assert with_xb["materialize"] == without["materialize"]
        delta = model.job_cost(cluster, **kwargs, exchange_bytes=64_000) - model.job_cost(
            cluster, **kwargs, exchange_bytes=0
        )
        assert with_xb["exchange"] == pytest.approx(delta)

    def test_exchange_rides_slower_rate_than_shuffle(self):
        assert CostModel().exchange_rate < CostModel().shuffle_rate
