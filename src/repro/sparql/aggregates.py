"""Aggregate accumulators shared by every engine.

Each accumulator supports incremental ``update``, associative ``merge``
(the property that makes mapper-side partial aggregation — the paper's
hash-based aggregation in mappers, a map task's fold — correct), and
``result``.

``AVG`` is *algebraic*: its partial state is (sum, count), so it can be
partially aggregated and merged exactly like the distributive
aggregates.  ``COUNT(DISTINCT ...)`` is holistic; its partial state is
the value set, which is what makes it shuffle-heavy on MapReduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from repro.errors import SparqlEvaluationError
from repro.mapreduce.cost import estimate_size

Number = Union[int, float]

#: Sentinel distinguishing "no result" (e.g. MIN of empty group) from None.
UNBOUND = object()


class Accumulator:
    """Base interface; subclasses hold the running aggregate state."""

    def update(self, value: object) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError

    def partial(self) -> object:
        """Serializable partial state (for shuffle byte accounting)."""
        raise NotImplementedError

    def copy(self) -> "Accumulator":
        """An independent accumulator with the same running state.
        Scalar state is shared by reference; subclasses holding mutable
        state copy it."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone


class CountAccumulator(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def update(self, value: object) -> None:
        self.count += 1

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, CountAccumulator):
            raise SparqlEvaluationError("cannot merge COUNT with other aggregate state")
        self.count += other.count

    def result(self) -> int:
        return self.count

    def partial(self) -> int:
        return self.count


#: Every finite double is a whole number of 2**-1074 units (the least
#: subnormal), so a count of them sums doubles exactly.
_UNIT_BITS = 1074


class SumAccumulator(Accumulator):
    """SUM.  Integers add on the plain ``+=`` path.  The first float
    switches the state to an exact one -- the sum as a count of 2**-1074
    units, infinities and NaN apart in float arithmetic -- so merging is
    exact and the result, rounded once, does not depend on how the
    values were split over map tasks or shards."""

    func = "SUM"

    def __init__(self) -> None:
        self.total = 0
        self.units: int | None = None  # the exact state, from the first float
        self.special = 0.0  # its non-finite part

    def update(self, value: object) -> None:
        if value.__class__ is int and self.units is None:
            self.total += value
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SparqlEvaluationError(f"{self.func} over non-numeric value {value!r}")
        if self.units is None:
            if isinstance(value, int):
                self.total += value
                return
            self.units = self.total << _UNIT_BITS
        if isinstance(value, int):
            self.units += value << _UNIT_BITS
        elif math.isfinite(value):
            numerator, denominator = value.as_integer_ratio()
            self.units += numerator << (_UNIT_BITS + 1 - denominator.bit_length())
        else:
            self.special += value

    def merge(self, other: Accumulator) -> None:
        if type(other) is not type(self):
            raise SparqlEvaluationError(f"cannot merge {self.func} with other aggregate state")
        assert isinstance(other, SumAccumulator)
        if self.units is None and other.units is None:
            self.total += other.total
            return
        if self.units is None:
            self.units = self.total << _UNIT_BITS
        self.units += other.total << _UNIT_BITS if other.units is None else other.units
        self.special += other.special

    def _rounded(self, count: int | None = None) -> Number:
        """The sum (over *count*, for AVG): the int total, or the exact
        state rounded once."""
        if self.units is None:
            return self.total if count is None else self.total / count
        if self.special:
            return self.special
        try:  # int / int is correctly rounded
            return self.units / ((count or 1) << _UNIT_BITS)
        except OverflowError:
            return math.inf if self.units > 0 else -math.inf

    def result(self) -> Number:
        return self._rounded()

    def partial(self) -> Number:
        return self._rounded()


class AvgAccumulator(SumAccumulator):
    """AVG: SUM's state plus a count, the quotient rounded once."""

    func = "AVG"

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def update(self, value: object) -> None:
        super().update(value)
        self.count += 1

    def merge(self, other: Accumulator) -> None:
        super().merge(other)
        assert isinstance(other, AvgAccumulator)
        self.count += other.count

    def result(self) -> Number:
        if self.count == 0:
            return 0
        return self._rounded(self.count)

    def partial(self) -> tuple[Number, int]:
        return (self._rounded(), self.count)


@dataclass
class _Extremum(Accumulator):
    """MIN / MAX of the input multiset, whatever its order or split: of
    value-equal extremes (``1`` and ``1.0``) the canonical one is kept,
    as DISTINCT keeps it, and a NaN input makes the result NaN."""

    is_min: bool

    def __post_init__(self) -> None:
        self.best: object = UNBOUND

    def update(self, value: object) -> None:
        best = self.best
        if best is UNBOUND:
            self.best = value
            return
        try:
            wins = value < best if self.is_min else best < value  # type: ignore[operator]
        except TypeError as exc:
            raise SparqlEvaluationError(
                f"cannot compare {value!r} with {best!r} in MIN/MAX"
            ) from exc
        if wins:
            self.best = value
        elif value == best:
            if value is not best and _canonical(value) < _canonical(best):
                self.best = value
        elif value != value:  # NaN: unordered, and it absorbs
            self.best = value

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, _Extremum) or other.is_min != self.is_min:
            raise SparqlEvaluationError("cannot merge MIN/MAX with other aggregate state")
        if other.best is not UNBOUND:
            self.update(other.best)

    def result(self) -> object:
        return self.best

    def partial(self) -> object:
        return self.best


class MinAccumulator(_Extremum):
    def __init__(self) -> None:
        super().__init__(is_min=True)


class MaxAccumulator(_Extremum):
    def __init__(self) -> None:
        super().__init__(is_min=False)


def _canonical(value: object) -> tuple:
    """A total order over aggregate inputs: ints, then floats and the
    other types, booleans last; then by type name and ``repr``."""
    return (isinstance(value, bool), not isinstance(value, int), type(value).__name__, repr(value))


class DistinctAccumulator(Accumulator):
    """Wraps another accumulator, feeding it each distinct value once.

    Holistic: the partial state is the full distinct value set.  Of
    value-equal inputs (``1`` and ``1.0``, ``0.0`` and ``-0.0``) the
    canonical one is kept, and ``result`` / ``partial`` go in canonical
    order, so neither depends on the order inputs arrive or partials
    merge -- nor, therefore, on map-task splits or shards.  Booleans
    form classes of their own: Python's ``True == 1``, but the boolean
    and numeric value spaces are disjoint.
    """

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: dict = {}  # (is bool, value) -> the canonical member of its class

    def update(self, value: object) -> None:
        # Defer feeding the inner accumulator until result() so merge
        # never double-counts; the seen members are the real state.
        key = (isinstance(value, bool), value)
        kept = self.seen.setdefault(key, value)
        if kept is not value and _canonical(value) < _canonical(kept):
            self.seen[key] = value

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, DistinctAccumulator):
            raise SparqlEvaluationError("cannot merge DISTINCT with plain aggregate state")
        for value in other.seen.values():
            self.update(value)

    def result(self) -> object:
        for value in self.partial():
            self.inner.update(value)
        try:
            return self.inner.result()
        finally:
            # Rebuild the inner accumulator so result() stays idempotent.
            self.inner = type(self.inner)()

    def partial(self) -> tuple:
        return tuple(sorted(self.seen.values(), key=_canonical))

    def copy(self) -> "DistinctAccumulator":
        clone = DistinctAccumulator(self.inner.copy())
        clone.seen = dict(self.seen)
        return clone


_FACTORIES = {
    "COUNT": CountAccumulator,
    "SUM": SumAccumulator,
    "AVG": AvgAccumulator,
    "MIN": MinAccumulator,
    "MAX": MaxAccumulator,
}

#: Aggregates whose partial states are mergeable scalars — these benefit
#: from mapper-side partial aggregation (local combining).
ALGEBRAIC_FUNCTIONS = frozenset(("COUNT", "SUM", "AVG", "MIN", "MAX"))


def accumulator_factory(func: str, distinct: bool = False) -> Callable[[], Accumulator]:
    """A zero-argument constructor of fresh accumulators for the named
    aggregate function: resolved once per plan by code that needs one
    accumulator per solution."""
    try:
        factory = _FACTORIES[func]
    except KeyError:
        raise SparqlEvaluationError(f"unknown aggregate function {func!r}") from None
    if distinct:
        return lambda: DistinctAccumulator(factory())
    return factory


def make_accumulator(func: str, distinct: bool = False) -> Accumulator:
    """Create a fresh accumulator for the named aggregate function."""
    return accumulator_factory(func, distinct)()


def aggregate_values(func: str, values: Iterable[object], distinct: bool = False) -> object:
    """One-shot aggregation of an iterable of already-extracted values."""
    accumulator = make_accumulator(func, distinct)
    for value in values:
        accumulator.update(value)
    return accumulator.result()


class AccumulatorTuple:
    """A shuffle-friendly bundle of accumulators (one per aggregation).

    The partial of a group in aggregation MR cycles of every engine: a
    map task's fold updates one tuple per group in place (hash-based
    partial aggregation), the reducer merges the tasks' tuples.
    """

    __slots__ = ("accumulators",)

    def __init__(self, accumulators: list[Accumulator]):
        self.accumulators = accumulators

    @classmethod
    def fresh(cls, specs: Iterable[tuple[str, bool]]) -> "AccumulatorTuple":
        return cls([make_accumulator(func, distinct) for func, distinct in specs])

    def merge(self, other: "AccumulatorTuple") -> None:
        for mine, theirs in zip(self.accumulators, other.accumulators):
            mine.merge(theirs)

    @staticmethod
    def merged(partials: list["AccumulatorTuple"]) -> "AccumulatorTuple":
        """The partials merged, in order, into a copy of the first: a
        reducer's inputs may be stored records a re-run must find intact."""
        merged = partials[0].copy()
        for partial in partials[1:]:
            merged.merge(partial)
        return merged

    def results(self) -> list[object]:
        return [accumulator.result() for accumulator in self.accumulators]

    def copy(self) -> "AccumulatorTuple":
        """A tuple whose accumulators can be merged into without
        touching this one's state."""
        return AccumulatorTuple([a.copy() for a in self.accumulators])

    def estimated_size(self) -> int:
        size = 4
        for accumulator in self.accumulators:
            size += estimate_size(accumulator.partial())
        return size
