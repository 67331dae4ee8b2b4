"""Performance instrumentation for the simulator substrate.

This package has two faces:

* a **lightweight recorder** (this module) that the MapReduce runner and
  the engines call into to attribute real wall-clock time to phases
  (``plan``, ``load``, ``jobs``, ``shuffle``, ``materialize``).  When no
  recorder is installed the hooks are near-free, so production runs pay
  nothing;
* a **reference mode** switch that disables every size/sort-key cache
  introduced by the hot-path overhaul, restoring the seed's uncached
  structural computations.  Profiling runs the same workload both ways
  and asserts the *simulated* counters are bit-identical — the caching
  invariant this repository's cost model depends on.

Heavier machinery lives in the submodules (imported explicitly so this
module stays cheap for the runner to import):

* :mod:`repro.perf.goldens` — capture/compare golden counters and rows;
* :mod:`repro.perf.profile` — the ``repro bench --profile`` harness that
  emits ``BENCH_PR1.json``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

from repro import ambient

__all__ = [
    "PerfRecorder",
    "RunTiming",
    "active_recorder",
    "detached",
    "phase",
    "recording",
    "reference_mode",
    "set_caches_enabled",
    "rows_digest",
]


@dataclass
class RunTiming:
    """Wall-clock accounting for one engine execution."""

    labels: dict[str, str]
    phases: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            **self.labels,
            "wall_seconds": self.wall_seconds,
            "phases": {name: round(seconds, 6) for name, seconds in sorted(self.phases.items())},
        }


class PerfRecorder:
    """Collects per-run phase timings.

    The runner and engines report phase durations via :func:`phase`;
    the bench harness brackets each engine execution with
    :meth:`begin_run` / :meth:`end_run`.  Phase time reported outside a
    run bracket is accumulated under a synthetic ``(unattributed)`` run.
    """

    def __init__(self) -> None:
        self.runs: list[RunTiming] = []
        self._current: RunTiming | None = None

    def begin_run(self, **labels: str) -> None:
        self._current = RunTiming(labels=dict(labels))

    def end_run(self, wall_seconds: float) -> RunTiming:
        run = self._current
        if run is None:
            run = RunTiming(labels={"qid": "(unattributed)", "engine": "?"})
        run.wall_seconds = wall_seconds
        self.runs.append(run)
        self._current = None
        return run

    def add_phase(self, name: str, seconds: float) -> None:
        run = self._current
        if run is None:
            run = RunTiming(labels={"qid": "(unattributed)", "engine": "?"})
            self._current = run
        run.phases[name] = run.phases.get(name, 0.0) + seconds

    def total_wall_seconds(self) -> float:
        return sum(run.wall_seconds for run in self.runs)


def active_recorder() -> PerfRecorder | None:
    return ambient.recorder


@contextmanager
def recording(recorder: PerfRecorder | None = None) -> Iterator[PerfRecorder]:
    """Install *recorder* (a fresh one by default) for the duration."""
    recorder = recorder if recorder is not None else PerfRecorder()
    with ambient.installed(recorder=recorder):
        yield recorder


#: Suspend telemetry for the duration — every sink, not only this
#: recorder (see :func:`repro.ambient.detached`).  Phase time spent
#: inside the block is attributed to nobody.
detached = ambient.detached


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the wrapped wall-clock time to phase *name*.

    A no-op (beyond one attribute read) when no recorder is installed.
    """
    recorder = ambient.recorder
    if recorder is None:
        yield
        return
    started = perf_counter()
    try:
        yield
    finally:
        recorder.add_phase(name, perf_counter() - started)


# ---------------------------------------------------------------------------
# Reference (uncached) mode
# ---------------------------------------------------------------------------


def set_caches_enabled(enabled: bool) -> None:
    """Toggle every hot-path cache at once.

    Covers the size caches consulted by
    :func:`repro.mapreduce.cost.estimate_size` (term/triple/triplegroup
    memos included) and the interned sort keys in
    :mod:`repro.mapreduce.runner`.
    """
    from repro.mapreduce import cost, runner

    cost.SIZE_CACHE_ENABLED = enabled
    runner.SORT_KEY_CACHE_ENABLED = enabled


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run with every cache disabled — the seed's uncached behavior.

    Used by the profiler to measure the pre-overhaul wall-clock cost and
    to assert that cached and uncached executions produce bit-identical
    simulated counters.
    """
    from repro.mapreduce import cost, runner

    previous = (cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED)
    set_caches_enabled(False)
    try:
        yield
    finally:
        cost.SIZE_CACHE_ENABLED, runner.SORT_KEY_CACHE_ENABLED = previous


# ---------------------------------------------------------------------------
# Result fingerprinting
# ---------------------------------------------------------------------------


def rows_digest(rows: list[dict]) -> str:
    """A stable fingerprint of an engine's result rows, **in order**.

    Row order is part of the fingerprint on purpose: the sort-key
    overhaul must not reorder combiner/reducer output, and any reorder
    shows up here even when the row multiset is unchanged.
    """
    hasher = hashlib.sha256()
    for row in rows:
        rendered = ";".join(
            f"{variable.n3()}={term.n3()}"
            for variable, term in sorted(row.items(), key=lambda kv: kv[0].name)
        )
        hasher.update(rendered.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()
