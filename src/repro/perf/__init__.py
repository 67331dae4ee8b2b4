"""The reference toolkit the tests compare the fast paths against.

* **reference mode** — a switch that disables every size/sort-key cache
  of the hot-path overhaul, restoring the seed's uncached structural
  computations.  The golden tests run the same workload both ways and
  require the *simulated* counters bit-identical — the caching
  invariant this repository's cost model depends on.  It is not a
  timing tool: wall-clock claims go through the ledger
  (``ledger/README.md``).
* :mod:`repro.perf.goldens` (imported explicitly) — capture/compare
  golden counters and rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.mapreduce import cost, runner

__all__ = ["reference_mode"]


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run with every hot-path cache disabled — the seed's uncached
    behavior: the size caches consulted by
    :func:`repro.mapreduce.cost.estimate_size` (term/triple/triplegroup
    memos included) and the interned sort keys in
    :mod:`repro.mapreduce.runner`.

    The reference side of the golden and size-cache tests: cached and
    uncached executions must produce bit-identical simulated counters.
    """
    previous = (cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED)
    cost.SIZE_CACHE_ENABLED = runner.SORT_KEY_CACHE_ENABLED = False
    try:
        yield
    finally:
        cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED = previous
