"""Aggregate accumulators shared by every engine.

Each accumulator supports incremental ``update``, associative ``merge``
(the property that makes mapper-side partial aggregation — the paper's
hash-based local combiner — correct), and ``result``.

``AVG`` is *algebraic*: its partial state is (sum, count), so it can be
partially aggregated and merged exactly like the distributive
aggregates.  ``COUNT(DISTINCT ...)`` is holistic; its partial state is
the value set, which is what makes it shuffle-heavy on MapReduce.
"""

from __future__ import annotations

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


class SumAccumulator(Accumulator):
    def __init__(self) -> None:
        self.total: Number = 0

    def update(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SparqlEvaluationError(f"SUM over non-numeric value {value!r}")
        self.total += value

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, SumAccumulator):
            raise SparqlEvaluationError("cannot merge SUM with other aggregate state")
        self.total += other.total

    def result(self) -> Number:
        return self.total

    def partial(self) -> Number:
        return self.total


class AvgAccumulator(Accumulator):
    def __init__(self) -> None:
        self.total: Number = 0
        self.count = 0

    def update(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SparqlEvaluationError(f"AVG over non-numeric value {value!r}")
        self.total += value
        self.count += 1

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, AvgAccumulator):
            raise SparqlEvaluationError("cannot merge AVG with other aggregate state")
        self.total += other.total
        self.count += other.count

    def result(self) -> Number:
        if self.count == 0:
            return 0
        return self.total / self.count

    def partial(self) -> tuple[Number, int]:
        return (self.total, self.count)


@dataclass
class _Extremum(Accumulator):
    is_min: bool

    def __post_init__(self) -> None:
        self.best: object = UNBOUND

    def update(self, value: object) -> None:
        if self.best is UNBOUND:
            self.best = value
            return
        try:
            smaller = value < self.best  # type: ignore[operator]
        except TypeError as exc:
            raise SparqlEvaluationError(
                f"cannot compare {value!r} with {self.best!r} in MIN/MAX"
            ) from exc
        if smaller == self.is_min:
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


class DistinctAccumulator(Accumulator):
    """Wraps another accumulator, feeding it each distinct value once.

    Holistic: the partial state is the full distinct value set.
    """

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def update(self, value: object) -> None:
        if value not in self.seen:
            self.seen.add(value)
            # Defer feeding the inner accumulator until result() so merge
            # never double-counts; the seen-set is the real state.

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, DistinctAccumulator):
            raise SparqlEvaluationError("cannot merge DISTINCT with plain aggregate state")
        self.seen |= other.seen

    def result(self) -> object:
        for value in self.seen:
            self.inner.update(value)
        try:
            return self.inner.result()
        finally:
            # Rebuild the inner accumulator so result() stays idempotent.
            self.inner = type(self.inner)()

    def partial(self) -> object:
        return frozenset(self.seen)

    def copy(self) -> "DistinctAccumulator":
        clone = DistinctAccumulator(self.inner.copy())
        clone.seen = set(self.seen)
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

    Used as the map-output value in aggregation MR cycles by every
    engine; the combiner merges tuples within a map task (hash-based
    partial aggregation), the reducer merges across tasks.
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
