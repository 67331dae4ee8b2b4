"""Unit and property tests for aggregate accumulators.

The merge property (split-update-merge ≡ sequential update) is what
makes mapper-side partial aggregation — the paper's TG_AgJ local
combiner — correct, so it gets hypothesis coverage.
"""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparqlEvaluationError
from repro.sparql.aggregates import (
    AccumulatorTuple,
    UNBOUND,
    aggregate_values,
    make_accumulator,
)


class TestBasics:
    def test_count(self):
        assert aggregate_values("COUNT", ["a", "b", "a"]) == 3

    def test_sum(self):
        assert aggregate_values("SUM", [1, 2, 3.5]) == 6.5

    def test_avg(self):
        assert aggregate_values("AVG", [2, 4]) == 3

    def test_min_max(self):
        assert aggregate_values("MIN", [3, 1, 2]) == 1
        assert aggregate_values("MAX", [3, 1, 2]) == 3

    def test_unknown_function(self):
        with pytest.raises(SparqlEvaluationError):
            make_accumulator("MEDIAN")

    def test_sum_non_numeric_errors(self):
        with pytest.raises(SparqlEvaluationError):
            aggregate_values("SUM", ["a"])

    def test_min_incomparable_errors(self):
        with pytest.raises(SparqlEvaluationError):
            aggregate_values("MIN", [1, "a"])


class TestEmptyGroups:
    """SPARQL: Sum({})=0, Avg({})=0, Count({})=0, Min/Max({}) unbound."""

    def test_count_empty(self):
        assert aggregate_values("COUNT", []) == 0

    def test_sum_empty(self):
        assert aggregate_values("SUM", []) == 0

    def test_avg_empty(self):
        assert aggregate_values("AVG", []) == 0

    def test_min_empty_unbound(self):
        assert aggregate_values("MIN", []) is UNBOUND

    def test_max_empty_unbound(self):
        assert aggregate_values("MAX", []) is UNBOUND


class TestDistinct:
    def test_count_distinct(self):
        assert aggregate_values("COUNT", ["a", "b", "a"], distinct=True) == 2

    def test_sum_distinct(self):
        assert aggregate_values("SUM", [5, 5, 3], distinct=True) == 8

    @pytest.mark.parametrize(
        "values, count",
        [([True, 1, 1.0], 2), ([1.0, True, 1], 2), ([False, 0, True, 1, 0.0], 4)],
    )
    def test_count_distinct_keeps_booleans_apart_from_numbers(self, values, count):
        """Boolean and numeric value spaces are disjoint, though Python's
        ``True == 1``: ``true``, ``1`` and ``1.0`` are two classes."""
        assert aggregate_values("COUNT", values, distinct=True) == count

    def test_result_idempotent(self):
        accumulator = make_accumulator("COUNT", distinct=True)
        for value in ("a", "b", "a"):
            accumulator.update(value)
        assert accumulator.result() == 2
        assert accumulator.result() == 2

    def test_merge_distinct(self):
        left = make_accumulator("COUNT", distinct=True)
        right = make_accumulator("COUNT", distinct=True)
        for value in ("a", "b"):
            left.update(value)
        for value in ("b", "c"):
            right.update(value)
        left.merge(right)
        assert left.result() == 3

    def test_merge_distinct_with_plain_rejected(self):
        left = make_accumulator("COUNT", distinct=True)
        right = make_accumulator("COUNT")
        with pytest.raises(SparqlEvaluationError):
            left.merge(right)


class TestMergeMismatch:
    @pytest.mark.parametrize("left,right", [("COUNT", "SUM"), ("SUM", "AVG"), ("MIN", "MAX")])
    def test_cross_function_merge_rejected(self, left, right):
        with pytest.raises(SparqlEvaluationError):
            make_accumulator(left).merge(make_accumulator(right))


_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@settings(max_examples=150, deadline=None)
@given(
    func=st.sampled_from(_FUNCS),
    values=st.lists(st.integers(-1000, 1000), min_size=0, max_size=50),
    split=st.integers(0, 50),
)
def test_merge_equals_sequential(func, values, split):
    """Partial aggregation + merge must equal one-shot aggregation."""
    split = min(split, len(values))
    left = make_accumulator(func)
    right = make_accumulator(func)
    for value in values[:split]:
        left.update(value)
    for value in values[split:]:
        right.update(value)
    left.merge(right)
    expected = aggregate_values(func, values)
    result = left.result()
    if isinstance(expected, float):
        assert result == pytest.approx(expected)
    else:
        assert result == expected


@settings(max_examples=100, deadline=None)
@given(
    func=st.sampled_from(_FUNCS),
    values=st.lists(st.integers(-100, 100), min_size=0, max_size=40),
    chunks=st.integers(1, 5),
)
def test_multiway_merge(func, values, chunks):
    """Merging any number of partials is associative-equivalent."""
    partials = [make_accumulator(func) for _ in range(chunks)]
    for index, value in enumerate(values):
        partials[index % chunks].update(value)
    first = partials[0]
    for other in partials[1:]:
        first.merge(other)
    expected = aggregate_values(func, values)
    result = first.result()
    if isinstance(expected, float):
        assert result == pytest.approx(expected)
    else:
        assert result == expected


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), max_size=30),
    split=st.integers(0, 30),
)
def test_accumulator_tuple_merge(values, split):
    split = min(split, len(values))
    specs = [("COUNT", False), ("SUM", False), ("AVG", False)]
    left, right = AccumulatorTuple.fresh(specs), AccumulatorTuple.fresh(specs)
    for value in values[:split]:
        for accumulator in left.accumulators:
            accumulator.update(value)
    for value in values[split:]:
        for accumulator in right.accumulators:
            accumulator.update(value)
    left.merge(right)
    count, total, avg = left.results()
    assert count == len(values)
    assert total == sum(values)
    assert avg == pytest.approx(sum(values) / len(values)) if values else avg == 0


_numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 0.1, 2**53 + 1]),
)


def _exact(values):
    """The correctly rounded sum of *values* (finite, at least one float)."""
    from fractions import Fraction

    total = sum(Fraction(value) for value in values)
    try:
        return float(total)
    except OverflowError:
        return float("inf") if total > 0 else float("-inf")


class TestExactFloatSums:
    """SUM / AVG over floats: exact, rounded once, split-independent."""

    def test_ints_stay_on_the_int_path(self):
        accumulator = make_accumulator("SUM")
        for value in (2**70, -3, 5):
            accumulator.update(value)
        assert accumulator.result() == 2**70 + 2 and type(accumulator.result()) is int
        assert accumulator.units is None
        assert aggregate_values("AVG", [1]) == 1.0 and type(aggregate_values("AVG", [1])) is float

    def test_a_float_sum_is_rounded_once(self):
        # Added left to right, 0.1 + 0.2 + 0.3 == 0.6000000000000001.
        assert aggregate_values("SUM", [0.1, 0.2, 0.3]) == 0.6
        assert aggregate_values("SUM", [1e100, 1.0, -1e100]) == 1.0
        assert aggregate_values("AVG", [0.1, 0.2, 0.3]) == 0.2

    def test_non_finite_values(self):
        inf = float("inf")
        assert aggregate_values("SUM", [1.0, inf, 2]) == inf
        assert aggregate_values("SUM", [inf, -inf]) != aggregate_values("SUM", [inf, -inf])  # NaN
        assert aggregate_values("SUM", [1e308, 1e308]) == inf
        assert aggregate_values("AVG", [-inf, 3.0]) == -inf

    def test_negative_zero_sums_to_zero(self):
        assert repr(aggregate_values("SUM", [-0.0])) == "0.0"

    def test_the_partial_stays_a_scalar(self):
        total, average = make_accumulator("SUM"), make_accumulator("AVG")
        for value in (1, 0.5):
            total.update(value)
            average.update(value)
        assert total.partial() == 1.5 and average.partial() == (1.5, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        func=st.sampled_from(["SUM", "AVG"]),
        values=st.lists(_numbers, min_size=1, max_size=30),
        tasks=st.lists(st.integers(0, 4), min_size=30, max_size=30),
        order=st.randoms(use_true_random=False),
    )
    def test_any_split_in_any_order_is_the_exact_result(self, func, values, tasks, order):
        partials = [make_accumulator(func) for _ in range(5)]
        for value, task in zip(values, tasks):
            partials[task].update(value)
        order.shuffle(partials)
        merged = partials[0]
        for partial in partials[1:]:
            merged.merge(partial)
        result = merged.result()
        assert repr(result) == repr(aggregate_values(func, values))
        if func == "SUM":
            expected = sum(values) if all(type(v) is int for v in values) else _exact(values)
            assert repr(result) == repr(expected)


def test_accumulator_tuple_estimated_size_positive():
    bundle = AccumulatorTuple.fresh([("SUM", False), ("COUNT", True)])
    bundle.accumulators[0].update(5)
    assert bundle.estimated_size() > 0


class TestDistinctIsOrderFree:
    """Of value-equal inputs a DISTINCT aggregate keeps one canonical
    member, so its partial and result do not depend on the order the
    inputs arrive or the split they are merged from."""

    @pytest.mark.parametrize(
        "func, pair",
        [("SUM", (1, 1.0)), ("AVG", (1, 1.0)), ("MIN", (0.0, -0.0)), ("MAX", (0.0, -0.0))],
    )
    def test_value_equal_inputs_in_either_order(self, func, pair):
        forward, backward = (aggregate_values(func, p, distinct=True) for p in (pair, pair[::-1]))
        assert repr(forward) == repr(backward)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        func=st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
        values=st.lists(
            st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, -1, -1.0]), min_size=1, max_size=12
        ),
    )
    def test_any_arrival_order_and_merge_split_agree(self, data, func, values):
        def rendered(accumulator):
            return repr(accumulator.partial()), repr(accumulator.result())

        sequential = make_accumulator(func, distinct=True)
        for value in values:
            sequential.update(value)
        arrival = data.draw(st.permutations(values))
        tasks = data.draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
        partials = [make_accumulator(func, distinct=True) for _ in range(4)]
        for value, task in zip(arrival, tasks):
            partials[task].update(value)
        first, *rest = [partials[i] for i in data.draw(st.permutations(range(4)))]
        for partial in rest:
            first.merge(partial)
        assert rendered(first) == rendered(sequential)


class TestExtremumIsOrderFree:
    """MIN and MAX are functions of their input multiset: of value-equal
    extremes the canonical one wins (``1`` over ``1.0``, ``-0.0`` over
    ``0.0``, as DISTINCT keeps them), and a NaN makes the result NaN."""

    @pytest.mark.parametrize("func", ["MIN", "MAX"])
    @pytest.mark.parametrize(
        "values, expected", [((1, 1.0), "1"), ((0.0, -0.0), "-0.0"), ((1, 1.0, True), "1")]
    )
    def test_value_equal_inputs_in_every_order(self, func, values, expected):
        results = {repr(aggregate_values(func, order)) for order in permutations(values)}
        assert results == {expected}

    @pytest.mark.parametrize("func", ["MIN", "MAX"])
    def test_a_nan_input_makes_the_result_nan(self, func):
        for order in permutations([2.0, float("nan"), 1]):
            assert math.isnan(aggregate_values(func, order))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        func=st.sampled_from(["MIN", "MAX"]),
        values=st.lists(
            st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, 2.5, -1, -1.0, float("nan")]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_arrival_order_and_merge_split_agree(self, data, func, values):
        sequential = repr(aggregate_values(func, values))
        arrival = data.draw(st.permutations(values))
        assert repr(aggregate_values(func, arrival)) == sequential
        tasks = data.draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
        partials = [make_accumulator(func) for _ in range(4)]
        for value, task in zip(arrival, tasks):
            partials[task].update(value)
        first, *rest = [partials[i] for i in data.draw(st.permutations(range(4)))]
        for partial in rest:
            first.merge(partial)
        assert repr(first.result()) == sequential
