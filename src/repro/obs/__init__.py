"""Structured execution tracing for the simulator stack.

A hierarchical trace of what an execution did: spans (query → engine
→ plan → MR job → phase) and events (task retries, stragglers, aborts)
on two clocks — real wall time and the cost model's simulated seconds,
both on every span down to a job's phases — with per-span NTGA
operator metrics (triplegroups dropped by σ^γopt, n-split fan-out,
α-join combinations materialized vs. pruned, Agg-Join group counts,
per-job shuffle/HDFS bytes).

The installed recorder is the ``tracer`` slot of :mod:`repro.ambient`
(DESIGN.md §7.5): when it is ``None`` every hook here is a no-op beyond
that one attribute read, so untraced runs pay effectively nothing.  Hot
loops (the star filter, the α-join reducer) guard their calls with
``if ambient.tracer is not None:`` to skip even the call.

Submodules:

* :mod:`repro.obs.model` — :class:`Span` / :class:`TraceEvent` /
  :class:`TraceRecorder`;
* :mod:`repro.obs.sink` — the ``repro-trace/v1`` JSONL reader/writer;
* :mod:`repro.obs.summary` — per-query/per-engine rollups and the
  ``repro trace summary`` / ``tree`` renderings;
* :mod:`repro.obs.perfetto` — Chrome trace-event export for
  Perfetto / ``chrome://tracing``.

See ``docs/observability.md`` for the span model, the two-clock
semantics, and the operator-metric glossary.
"""

from __future__ import annotations

from contextlib import closing, contextmanager
from typing import Any, Iterator

from repro import ambient
from repro.obs.model import Span, TraceRecorder

__all__ = ["tracing", "span", "event", "count"]


@contextmanager
def tracing(recorder: TraceRecorder | None = None) -> Iterator[TraceRecorder]:
    """Install *recorder* (a fresh one by default) for the duration.

    The recorder is sealed (``close()``) on exit, so the caller can hand
    it straight to :func:`repro.obs.sink.write_trace`.
    """
    recorder = recorder if recorder is not None else TraceRecorder()
    with ambient.installed(tracer=recorder), closing(recorder):
        yield recorder


@contextmanager
def span(
    name: str, kind: str = "span", attrs: dict[str, Any] | None = None
) -> Iterator[Span | None]:
    """Bracket the enclosed work in a trace span.

    Yields the live :class:`Span` (for ``.attrs`` / ``.metrics``
    updates mid-flight) when tracing is on, ``None`` when off.
    """
    recorder = ambient.tracer
    if recorder is None:
        yield None
        return
    opened = recorder.begin_span(name, kind, attrs)
    try:
        yield opened
    finally:
        recorder.end_span(opened)


def event(name: str, attrs: dict[str, Any] | None = None) -> None:
    """Record a point-in-time event under the current span."""
    recorder = ambient.tracer
    if recorder is not None:
        recorder.add_event(name, attrs)


def count(name: str, amount: int = 1) -> None:
    """Add *amount* to operator metric *name* on the current span."""
    recorder = ambient.tracer
    if recorder is not None:
        recorder.count(name, amount)
