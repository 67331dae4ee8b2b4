"""Trace sink tests: the ``repro-trace/v1`` schema contract, byte
determinism, and the paper's-mechanism acceptance check."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.core.engines import run_all_engines, run_query
from repro.core.results import EngineConfig
from repro.errors import ReproError
from repro.obs.sink import (
    TRACE_SCHEMA,
    WALL_FIELDS,
    read_trace,
    strip_wall_fields,
    stripped_bytes,
    trace_records,
    write_trace,
)
from repro.obs.summary import render_summary, render_tree, summarize

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "trace_schema_v1.json"


def traced_mg1(product_graph, mg1_style_query, engines=("hive-naive", "rapid-analytics")):
    with obs.tracing() as recorder:
        run_all_engines(mg1_style_query, product_graph, engines=engines)
    return trace_records(recorder)


class TestSchema:
    def test_header_first(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        header = records[0]
        assert header["type"] == "header"
        assert header["schema"] == TRACE_SCHEMA
        assert header["generator"] == "repro.obs"

    def test_golden_schema_contract(self, product_graph, mg1_style_query):
        """Every record carries exactly the keys the committed schema
        description pins — the v1 compatibility contract."""
        golden = json.loads(GOLDEN.read_text())
        assert golden["schema"] == TRACE_SCHEMA
        assert sorted(golden["wall_fields"]) == sorted(WALL_FIELDS)
        records = traced_mg1(product_graph, mg1_style_query)
        seen_types = set()
        for record in records:
            kind = record["type"]
            seen_types.add(kind)
            assert kind in golden["records"], f"unknown record type {kind!r}"
            assert sorted(record) == sorted(golden["records"][kind]["keys"]), (
                f"{kind} record keys drifted from the committed v1 schema"
            )
        assert seen_types == set(golden["records"])

    def test_ids_are_dense_and_ordered(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        ids = [r["id"] for r in records[1:]]
        assert ids == sorted(ids)
        assert ids == list(range(len(ids)))

    def test_roundtrip_and_read_validation(self, tmp_path, product_graph, mg1_style_query):
        with obs.tracing() as recorder:
            run_query(mg1_style_query, product_graph, engine="rapid-analytics")
        path = write_trace(recorder, tmp_path / "trace.jsonl")
        records = read_trace(path)
        assert records == trace_records(recorder)

        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "header", "schema": "other/v9"}\n')
        with pytest.raises(ReproError):
            read_trace(bogus)
        with pytest.raises(ReproError):
            read_trace(tmp_path / "missing.jsonl")

    def test_strip_wall_fields(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        for record in strip_wall_fields(records):
            assert not set(record) & set(WALL_FIELDS)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, product_graph, mg1_style_query):
        first = traced_mg1(product_graph, mg1_style_query)
        second = traced_mg1(product_graph, mg1_style_query)
        assert stripped_bytes(first) == stripped_bytes(second)

    def test_faulted_run_deterministic(self, product_graph, mg1_style_query):
        from repro.mapreduce.faults import FaultPlan

        plan = FaultPlan(seed=7, task_failure_rate=0.3, straggler_rate=0.3,
                         hdfs_write_failure_rate=0.3)

        def one():
            with obs.tracing() as recorder:
                run_query(
                    mg1_style_query, product_graph,
                    engine="rapid-analytics", config=EngineConfig(fault_plan=plan),
                )
            return trace_records(recorder)

        first, second = one(), one()
        assert stripped_bytes(first) == stripped_bytes(second)
        # and the plan at these rates actually injected something
        assert any(r["type"] == "event" for r in first)


class TestPhaseWallClock:
    """Both clocks on every span: a job's phase spans carry the wall
    interval the runner measured for their stage."""

    STAGES = ("map", "shuffle", "reduce", "materialize")

    def test_phase_spans_tile_their_job_on_the_wall_clock(self, bsbm_small):
        from repro.bench.catalog import get_query

        with obs.tracing() as recorder:
            run_all_engines(
                get_query("MG1").sparql, bsbm_small, engines=("hive-naive", "rapid-analytics")
            )
        jobs = {span.id: span for span in recorder.spans if span.kind == "job"}
        phases: dict[int, list] = {job: [] for job in jobs}
        for span in recorder.spans:
            if span.kind == "phase":
                assert span.name in self.STAGES
                phases[span.parent].append(span)
        assert jobs and all(phases.values())
        for job_id, spans in phases.items():
            job = jobs[job_id]
            assert [s.name for s in spans] in (list(self.STAGES), ["map", "materialize"])
            end = job.wall_start
            for span in spans:  # in creation order = timeline order
                assert span.wall_dur >= 0
                assert span.wall_start >= end  # inside the job, after its predecessor
                end = span.wall_end
            assert end <= job.wall_end
            assert sum(s.wall_dur for s in spans) <= job.wall_dur
        # ... and the stages that run mappers and reducers took measurable time.
        assert any(span.wall_dur > 0 for spans in phases.values() for span in spans)


class TestPaperMechanism:
    """ISSUE acceptance: the trace alone shows why rapid-analytics wins."""

    def test_fewer_cycles_and_alpha_pruning(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        by_engine = {s.engine: s for s in summarize(records)}
        hive = by_engine["hive-naive"]
        rapid = by_engine["rapid-analytics"]
        # fewer MR-cycle spans...
        assert rapid.jobs < hive.jobs
        # ...and superfluous α-join combinations pruned (product 3 has no
        # feature, so its detail records satisfy only the roll-up α).
        assert rapid.metrics.get("alpha_combinations_pruned", 0) > 0
        assert rapid.metrics.get("alpha_combinations_materialized", 0) > 0
        assert rapid.metrics.get("agg_join_groups", 0) > 0
        assert rapid.sim_seconds < hive.sim_seconds

    def test_sigma_filter_visible(self, bsbm_small):
        from repro.bench.catalog import get_query

        with obs.tracing() as recorder:
            run_query(get_query("MG1").sparql, bsbm_small, engine="rapid-analytics")
        records = trace_records(recorder)
        summary = summarize(records)[0]
        assert summary.metrics.get("sigma_dropped_triplegroups", 0) > 0


class TestRenderings:
    def test_summary_table(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        text = render_summary(records)
        assert "hive-naive" in text
        assert "rapid-analytics" in text
        assert "alpha_combinations_pruned=" in text

    def test_tree_depth_limit(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        full = render_tree(records)
        shallow = render_tree(records, max_depth=1)
        assert len(shallow.splitlines()) < len(full.splitlines())
        assert "[root]" in shallow
        assert "job:" in full and "job:" not in shallow

    def test_two_clocks_in_tree(self, product_graph, mg1_style_query):
        records = traced_mg1(product_graph, mg1_style_query)
        text = render_tree(records, max_depth=2)
        assert "sim=" in text and "wall=" in text
