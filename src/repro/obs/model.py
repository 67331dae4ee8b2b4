"""Span and event model for execution traces.

A trace is a tree of **spans** (timed regions) with point-in-time
**events** attached to them, recorded on two clocks at once:

* the **wall clock** (``time.perf_counter``) — how long the simulator
  itself took, for performance attribution;
* the **simulated clock** — the cost model's seconds, advanced only
  when the MapReduce runner charges a job.  This is the clock the
  paper's numbers live on: span layout on it reproduces Table 3 /
  Figure 8 structure (cycles, per-phase volume costs) exactly.

Wall times are the only nondeterministic fields; everything else
(span ids, names, attributes, metrics, simulated times) is a pure
function of the workload, which is what makes traces byte-comparable
across runs once wall fields are stripped (see :mod:`repro.obs.sink`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any


@dataclass
class Span:
    """One timed region of an execution (query, engine, plan, job, ...)."""

    id: int
    parent: int | None
    name: str
    kind: str
    sim_start: float
    wall_start: float
    sim_end: float = 0.0
    wall_end: float = 0.0
    #: Structured facts known at record time (engine name, byte volumes,
    #: task counts, plan shape).
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Operator metrics accumulated by :meth:`TraceRecorder.count` while
    #: this span was innermost (triplegroups dropped, combos pruned, ...).
    metrics: dict[str, int] = field(default_factory=dict)

    @property
    def sim_dur(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def wall_dur(self) -> float:
        return self.wall_end - self.wall_start


@dataclass
class TraceEvent:
    """A point-in-time occurrence (task retry, straggler, abort, ...)."""

    id: int
    parent: int | None
    name: str
    sim_time: float
    wall_time: float
    attrs: dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Collects one trace: a span tree plus events, on both clocks.

    The recorder owns an implicit **root span** (id 0) so that every
    span and every :meth:`count` increment always has a parent, even
    outside any explicit bracket.  ``close()`` seals the root; it is
    idempotent and called automatically by :func:`repro.obs.tracing`.
    """

    def __init__(self) -> None:
        self._origin = perf_counter()
        self.sim_now: float = 0.0
        self._next_id = 1
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        root = Span(
            id=0, parent=None, name="trace", kind="root", sim_start=0.0, wall_start=0.0
        )
        self.root = root
        self.spans.append(root)
        self._stack: list[Span] = [root]
        self._closed = False

    # -- clocks -----------------------------------------------------------------

    def _wall(self) -> float:
        return perf_counter() - self._origin

    def advance_sim(self, seconds: float) -> None:
        """Move the simulated clock forward (the runner charging a job)."""
        self.sim_now += seconds

    # -- spans ------------------------------------------------------------------

    def current(self) -> Span:
        return self._stack[-1]

    def begin_span(
        self, name: str, kind: str, attrs: dict[str, Any] | None = None
    ) -> Span:
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id,
            name=name,
            kind=kind,
            sim_start=self.sim_now,
            wall_start=self._wall(),
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.sim_end = self.sim_now
        span.wall_end = self._wall()
        # Pop to (and including) the span; defensively closes any child
        # left open by an exception that skipped its end.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling is self.root:
                self._stack.append(dangling)
                break
            dangling.sim_end = self.sim_now
            dangling.wall_end = span.wall_end
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def add_closed_span(
        self,
        name: str,
        kind: str,
        *,
        sim_start: float | None = None,
        sim_dur: float = 0.0,
        wall: tuple[float, float] | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record an already-finished span (a simulated phase laid out on
        the cost-model timeline after its volumes are known).  *wall* is
        the ``perf_counter()`` readings its work started and ended at;
        without one the span is a wall-clock instant at "now"."""
        start = self.sim_now if sim_start is None else sim_start
        if wall is None:
            wall_start = wall_end = self._wall()
        else:
            wall_start, wall_end = wall[0] - self._origin, wall[1] - self._origin
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id,
            name=name,
            kind=kind,
            sim_start=start,
            wall_start=wall_start,
            sim_end=start + sim_dur,
            wall_end=wall_end,
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- events and metrics -----------------------------------------------------

    def add_event(self, name: str, attrs: dict[str, Any] | None = None) -> TraceEvent:
        event = TraceEvent(
            id=self._next_id,
            parent=self._stack[-1].id,
            name=name,
            sim_time=self.sim_now,
            wall_time=self._wall(),
            attrs=dict(attrs) if attrs else {},
        )
        self._next_id += 1
        self.events.append(event)
        return event

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to metric *name* on the innermost open span."""
        metrics = self._stack[-1].metrics
        metrics[name] = metrics.get(name, 0) + amount

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Seal the trace: close every open span, root last (idempotent)."""
        if self._closed:
            return
        while len(self._stack) > 1:
            self.end_span(self._stack[-1])
        self.root.sim_end = self.sim_now
        self.root.wall_end = self._wall()
        self._closed = True
