"""The reference toolkit the tests compare the fast paths against.

* **reference mode** — a switch that disables every size/sort-key cache
  of the hot-path overhaul, restoring the seed's uncached structural
  computations.  The golden tests run the same workload both ways and
  require the *simulated* counters bit-identical — the caching
  invariant this repository's cost model depends on.  It is not a
  timing tool: wall-clock claims go through the ledger
  (``ledger/README.md``).
* :func:`rows_digest` — the order-sensitive answer fingerprint of
  :mod:`repro.core.results`, under the name the goldens know it by.
* :mod:`repro.perf.goldens` (imported explicitly) — capture/compare
  golden counters and rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.results import rows_digest
from repro.mapreduce import cost, runner

__all__ = [
    "reference_mode",
    "set_caches_enabled",
    "rows_digest",
]


def set_caches_enabled(enabled: bool) -> None:
    """Toggle every hot-path cache at once.

    Covers the size caches consulted by
    :func:`repro.mapreduce.cost.estimate_size` (term/triple/triplegroup
    memos included) and the interned sort keys in
    :mod:`repro.mapreduce.runner`.
    """
    cost.SIZE_CACHE_ENABLED = enabled
    runner.SORT_KEY_CACHE_ENABLED = enabled


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run with every cache disabled — the seed's uncached behavior.

    The reference side of the golden and size-cache tests: cached and
    uncached executions must produce bit-identical simulated counters.
    """
    previous = (cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED)
    set_caches_enabled(False)
    try:
        yield
    finally:
        cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED = previous
