"""Perfetto (Chrome trace-event) export tests."""

from __future__ import annotations

from repro import obs
from repro.core.engines import run_all_engines, run_query
from repro.core.results import EngineConfig
from repro.obs.perfetto import to_chrome_trace, validate_chrome_trace
from repro.obs.sink import trace_records


def traced(product_graph, mg1_style_query, **kwargs):
    with obs.tracing() as recorder:
        run_all_engines(
            mg1_style_query,
            product_graph,
            engines=("hive-naive", "rapid-analytics"),
            **kwargs,
        )
    return trace_records(recorder)


class TestExport:
    def test_validates_against_trace_event_shape(self, product_graph, mg1_style_query):
        chrome = to_chrome_trace(traced(product_graph, mg1_style_query))
        assert validate_chrome_trace(chrome) == []

    def test_one_track_per_engine(self, product_graph, mg1_style_query):
        chrome = to_chrome_trace(traced(product_graph, mg1_style_query))
        thread_names = {
            e["args"]["name"]: e["tid"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names["hive-naive"] != thread_names["rapid-analytics"]
        assert thread_names["control"] == 0
        # every engine's job spans sit on that engine's track
        jobs_by_tid: dict[int, list[str]] = {}
        for e in chrome["traceEvents"]:
            if e["ph"] == "X" and e["cat"] == "job":
                jobs_by_tid.setdefault(e["tid"], []).append(e["name"])
        hive_jobs = jobs_by_tid[thread_names["hive-naive"]]
        rapid_jobs = jobs_by_tid[thread_names["rapid-analytics"]]
        assert all(name.startswith("job:hive:") for name in hive_jobs)
        assert all(name.startswith("job:ra:") for name in rapid_jobs)

    def test_simulated_timeline_microseconds(self, product_graph, mg1_style_query):
        records = traced(product_graph, mg1_style_query)
        chrome = to_chrome_trace(records)
        job_spans = [r for r in records if r["type"] == "span" and r["kind"] == "job"]
        job_events = [
            e for e in chrome["traceEvents"] if e["ph"] == "X" and e["cat"] == "job"
        ]
        by_name = {e["name"]: e for e in job_events}
        for span in job_spans:
            event = by_name[span["name"]]
            assert event["ts"] == span["sim_start"] * 1_000_000
            assert event["dur"] == span["sim_dur"] * 1_000_000

    def test_fault_events_become_instants(self, product_graph, mg1_style_query):
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan(seed=7, task_failure_rate=0.3)
        with obs.tracing() as recorder:
            run_query(
                mg1_style_query, product_graph, engine="rapid-analytics",
                config=EngineConfig(fault_plan=plan),
            )
        records = trace_records(recorder)
        assert any(
            r["type"] == "event" and r["name"] == "task-retry" for r in records
        ), "fault plan at rate 0.3 should inject at least one retry"
        chrome = to_chrome_trace(records)
        instants = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "task-retry" for e in instants)
        # instants land on the engine's track, not the control track
        engine_tids = {
            e["tid"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "thread_name"
            and e["args"]["name"] == "rapid-analytics"
        }
        retry_tids = {e["tid"] for e in instants if e["name"] == "task-retry"}
        assert retry_tids <= engine_tids

    def test_metrics_exported_in_args(self, product_graph, mg1_style_query):
        chrome = to_chrome_trace(traced(product_graph, mg1_style_query))
        pruned = [
            e
            for e in chrome["traceEvents"]
            if e["ph"] == "X"
            and e["args"].get("metrics", {}).get("alpha_combinations_pruned")
        ]
        assert pruned


class TestValidator:
    def test_rejects_malformed(self):
        assert validate_chrome_trace([]) == ["top-level value must be a JSON object"]
        assert validate_chrome_trace({}) == ["'traceEvents' must be an array"]
        assert "'traceEvents' is empty" in validate_chrome_trace({"traceEvents": []})
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Z", "name": "x", "pid": 1, "tid": 0},
                    {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": -1, "dur": "no"},
                    {"ph": "i", "name": "", "pid": 1, "tid": 0, "ts": 0},
                ]
            }
        )
        assert any("unknown phase" in p for p in problems)
        assert any("ts must be" in p for p in problems)
        assert any("dur must be" in p for p in problems)
        assert any("missing event name" in p for p in problems)
