"""The ledger's own spans: recorded around calls *into* ``repro``.

Nothing here touches ``src/``: a span brackets one call through a
layer's public entry point, made by the ledger.  Spans stay in memory
and are written out when the run ends.  A layer's *self time* is its
spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Layer of the root span of every op: time under it that no child span
#: covers is the ledger's own glue, not the program's.
GLUE = "ledger"


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: str
    name: str
    layer: str
    start: float
    end: float = 0.0
    #: counts taken at the same boundary (records, bytes, job kind).
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = ""

    @contextmanager
    def op(self, op_id: str) -> Iterator[Span]:
        """Root span of one operation; child spans share its id."""
        self._op = op_id
        with self.span("op", GLUE) as root:
            yield root
        self._op = ""

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        opened = Span(len(self.spans), parent, self._op, name, layer, time.perf_counter())
        self.spans.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = time.perf_counter()
            self._stack.pop()

    def select(self, prefix: str) -> "Tracer":
        """A view holding only the ops whose id starts with *prefix*."""
        view = Tracer()
        view.spans = [span for span in self.spans if span.op.startswith(prefix)]
        return view

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus its children's durations."""
        own = {span.span_id: span.seconds for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def self_time_by(self, attribute: str) -> dict[str, float]:
        """Self time summed per span ``layer`` or ``name``."""
        own = self.self_times()
        total: dict[str, float] = defaultdict(float)
        for span in self.spans:
            total[getattr(span, attribute)] += own[span.span_id]
        return dict(total)

    def op_seconds(self) -> float:
        """Total wall of the root spans."""
        return sum(span.seconds for span in self.spans if span.parent is None)

    def coverage(self) -> float:
        """Share of op wall that self times of non-glue spans account for."""
        total = self.op_seconds()
        if total <= 0.0:
            return 0.0
        return 1.0 - self.self_time_by("layer").get(GLUE, 0.0) / total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent,
                            "op": span.op,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            **({"attrs": span.attrs} if span.attrs else {}),
                        }
                    )
                    + "\n"
                )
