"""Unit tests for the trace recorder and hooks."""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import ambient, obs
from repro.obs.model import TraceRecorder


class TestTraceRecorder:
    def test_root_span_exists(self):
        recorder = TraceRecorder()
        assert recorder.root.id == 0
        assert recorder.root.kind == "root"
        assert recorder.current() is recorder.root

    def test_span_nesting_and_ids(self):
        recorder = TraceRecorder()
        outer = recorder.begin_span("outer", "query")
        inner = recorder.begin_span("inner", "engine")
        assert inner.parent == outer.id
        assert outer.parent == 0
        assert inner.id == outer.id + 1
        recorder.end_span(inner)
        assert recorder.current() is outer
        recorder.end_span(outer)
        assert recorder.current() is recorder.root

    def test_sim_clock_advances_spans(self):
        recorder = TraceRecorder()
        span = recorder.begin_span("job", "job")
        recorder.advance_sim(3.5)
        recorder.end_span(span)
        assert span.sim_start == 0.0
        assert span.sim_dur == 3.5
        assert recorder.sim_now == 3.5

    def test_closed_span_layout(self):
        recorder = TraceRecorder()
        recorder.advance_sim(2.0)
        phase = recorder.add_closed_span("map", "phase", sim_start=2.0, sim_dur=1.5)
        assert phase.sim_start == 2.0
        assert phase.sim_end == 3.5
        # closed spans never become the current span
        assert recorder.current() is recorder.root
        # ... and without a measured interval are a wall-clock instant
        assert phase.wall_dur == 0.0

    def test_closed_span_carries_a_measured_wall_interval(self):
        recorder = TraceRecorder()
        job = recorder.begin_span("job", "job")
        started = perf_counter()
        ended = perf_counter()
        phase = recorder.add_closed_span("map", "phase", wall=(started, ended))
        recorder.end_span(job)
        # perf_counter readings, stored relative to the trace's origin
        assert phase.wall_dur == pytest.approx(ended - started)
        assert job.wall_start <= phase.wall_start <= phase.wall_end <= job.wall_end

    def test_count_lands_on_innermost_span(self):
        recorder = TraceRecorder()
        span = recorder.begin_span("job", "job")
        recorder.count("alpha_combinations_pruned")
        recorder.count("alpha_combinations_pruned", 2)
        recorder.end_span(span)
        assert span.metrics == {"alpha_combinations_pruned": 3}
        assert recorder.root.metrics == {}

    def test_events_share_id_space(self):
        recorder = TraceRecorder()
        span = recorder.begin_span("job", "job")
        event = recorder.add_event("task-retry", {"index": 1})
        assert event.parent == span.id
        assert event.id == span.id + 1

    def test_close_is_idempotent_and_seals_open_spans(self):
        recorder = TraceRecorder()
        recorder.begin_span("left-open", "engine")
        recorder.advance_sim(1.0)
        recorder.close()
        recorder.close()
        assert recorder.current() is recorder.root
        assert recorder.root.sim_end == 1.0
        assert all(span.sim_end >= span.sim_start for span in recorder.spans)

    def test_end_span_closes_dangling_children(self):
        recorder = TraceRecorder()
        outer = recorder.begin_span("outer", "query")
        recorder.begin_span("dangling", "engine")
        recorder.end_span(outer)  # skips the inner end (exception path)
        assert recorder.current() is recorder.root


class TestHooks:
    def test_disabled_hooks_are_noops(self):
        assert ambient.tracer is None
        with obs.span("x", "query") as span:
            assert span is None
        obs.event("nothing")
        obs.count("nothing")

    def test_tracing_installs_and_restores(self):
        with obs.tracing() as recorder:
            assert ambient.tracer is recorder
            with obs.span("q", "query", {"qid": "Q1"}) as span:
                assert span is not None
                assert span.attrs == {"qid": "Q1"}
                obs.count("metric", 5)
            assert span.metrics == {"metric": 5}
        assert ambient.tracer is None
        assert recorder._closed

    def test_nested_tracing_restores_previous(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                assert ambient.tracer is inner
            assert ambient.tracer is outer

    def test_span_closed_on_exception(self):
        with obs.tracing() as recorder:
            with pytest.raises(RuntimeError):
                with obs.span("boom", "job"):
                    raise RuntimeError("boom")
            assert recorder.current() is recorder.root
