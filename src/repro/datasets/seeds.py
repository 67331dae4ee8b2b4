"""Shared helpers for seeded synthetic dataset generation."""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.errors import DatasetError

T = TypeVar("T")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def zipf_weights(n: int, skew: float = 1.0) -> list[float]:
    """Zipf-like weights for skewed categorical choices (rank 1 hottest)."""
    if n <= 0:
        raise DatasetError("need at least one category")
    weights = [1.0 / (rank**skew) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    return rng.choices(items, weights=weights, k=1)[0]
