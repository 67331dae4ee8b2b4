"""EXPLAIN report: golden snapshots, schema, and side-effect freedom.

The golden files under ``tests/golden/explain/`` pin the full EXPLAIN
text — decomposition, MR plan, and the planner section with every
priced candidate — for MG1–MG4 over the BSBM tiny preset in cost mode.
Re-rendering them must be bit-identical, so any estimator or enumerator
change that moves a priced cost or a plan choice shows up as a diff.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.bench.catalog import get_query
from repro.cli import main
from repro.core.engines import make_engine, to_analytical
from repro.core.explain import EXPLAIN_SCHEMA, explain, explain_report
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.obs import metrics
from repro.plan import enumerator

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "explain"

GOLDEN_QIDS = ("MG1", "MG2", "MG3", "MG4")


@pytest.fixture(scope="module")
def bsbm_tiny():
    return bsbm.generate(bsbm.preset("tiny"))


def render(qid, graph):
    return explain(
        get_query(qid).sparql,
        engine="rapid-analytics",
        graph=graph,
        config=EngineConfig(planner="cost"),
    )


class TestGoldenSnapshots:
    def test_goldens_are_committed(self):
        present = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
        assert set(GOLDEN_QIDS) <= present

    @pytest.mark.parametrize("qid", GOLDEN_QIDS)
    def test_snapshot_is_bit_identical(self, qid, bsbm_tiny):
        golden = (GOLDEN_DIR / f"{qid}.txt").read_text()
        assert render(qid, bsbm_tiny) == golden

    @pytest.mark.parametrize("qid", GOLDEN_QIDS)
    def test_cost_mode_keeps_composite_on_catalog(self, qid, bsbm_tiny):
        """The paper's heuristic is vindicated on its own workload: the
        cost planner agrees with the rule on every MG query."""
        text = render(qid, bsbm_tiny)
        assert "planner (cost mode): chose 'composite'" in text


class TestExplainText:
    def test_planner_section_needs_a_graph(self):
        text = explain(get_query("MG1").sparql, engine="rapid-analytics")
        assert "rapid-analytics plan" in text
        assert "planner (" not in text

    def test_rule_mode_section_shows_alternatives(self, bsbm_tiny):
        text = explain(
            get_query("MG1").sparql,
            engine="rapid-analytics",
            graph=bsbm_tiny,
            config=EngineConfig(planner="rule"),
        )
        assert "planner (rule mode): chose 'composite'" in text
        assert "sequential" in text
        # Hive plans are measured by running them, never priced.
        assert "hive-naive:" not in text and "informational" not in text
        assert "explain --engine hive-naive|hive-mqo" in text
        assert "estimated cardinalities:" in text
        assert "evaluation order:" in text


class TestExplainReport:
    def test_schema_and_choice(self, bsbm_tiny):
        report = explain_report(
            get_query("MG1").sparql,
            engine="rapid-analytics",
            graph=bsbm_tiny,
            config=EngineConfig(planner="cost"),
        )
        assert report["schema"] == EXPLAIN_SCHEMA
        assert report["engine"] == "rapid-analytics"
        assert report["decomposition"]["subqueries"]
        choice = report["choice"]
        assert choice["mode"] == "cost"
        assert choice["chosen"] == "composite"
        names = [c["name"] for c in choice["candidates"]]
        assert names[0] == "composite"
        assert report["estimated_vs_actual"] is None  # no run supplied

    def test_the_candidates_are_priced_once(self, bsbm_tiny, monkeypatch):
        """The text's planner section and ``choice`` share one pricing."""
        calls = []
        compiled_candidates = enumerator._compiled_candidates

        def counted(*args):
            calls.append(args)
            return compiled_candidates(*args)

        monkeypatch.setattr(enumerator, "_compiled_candidates", counted)
        explain_report(get_query("MG1").sparql, graph=bsbm_tiny)
        assert len(calls) == 1

    def test_estimated_vs_actual_aligns_by_job(self, bsbm_tiny):
        config = EngineConfig(planner="cost")
        query = to_analytical(get_query("MG1").sparql)
        run = make_engine("rapid-analytics").execute(query, bsbm_tiny, config)
        report = explain_report(
            query, engine="rapid-analytics", graph=bsbm_tiny, config=config, run=run
        )
        comparison = report["estimated_vs_actual"]
        # Every executed job carried the estimate it was priced with.
        assert [entry["job"] for entry in comparison] == run.plan
        for entry, actual in zip(comparison, run.stats.jobs):
            assert entry["parts"] == 1
            assert entry["actual_rows"] == actual.output_records
            assert entry["actual_cost"] == round(actual.cost_seconds, 6)
            assert entry["estimated_cost"] > 0.0

    def test_a_rule_mode_run_has_nothing_to_compare(self, bsbm_tiny):
        """Nobody priced a rule-mode plan: no job carries an estimate."""
        config = EngineConfig(planner="rule")
        query = to_analytical(get_query("MG1").sparql)
        run = make_engine("rapid-analytics").execute(query, bsbm_tiny, config)
        assert all(job.estimate is None for job in run.stats.jobs)
        report = explain_report(
            query, engine="rapid-analytics", graph=bsbm_tiny, config=config, run=run
        )
        assert report["estimated_vs_actual"] == []

    def test_sharded_run_groups_the_parts_of_each_priced_cycle(self, bsbm_tiny):
        """The parts the sharded driver derives from a priced job inherit
        its estimate, so the comparison finds them whatever they are
        called (it glued by job name, and ``ra:alpha-join-0@s0`` matched
        nothing: every actual was ``None``)."""
        query = to_analytical(get_query("MG3").sparql)
        engine = make_engine("rapid-analytics")
        solo = engine.execute(query, bsbm_tiny, EngineConfig(planner="cost"))
        sharded = engine.execute(
            query, bsbm_tiny, EngineConfig(planner="cost", shards=2)
        )
        comparison = explain_report(
            query, engine="rapid-analytics", graph=bsbm_tiny, run=sharded
        )["estimated_vs_actual"]
        assert [entry["job"] for entry in comparison] == solo.plan
        for entry, unsharded in zip(comparison, solo.stats.jobs):
            # partial + assemble per shard for a full cycle, one
            # broadcast job per shard for a map-only one
            assert entry["parts"] == (2 if unsharded.map_only else 4)
            assert entry["actual_rows"] == unsharded.output_records
            assert entry["actual_cost"] > 0.0
        assert sum(entry["actual_cost"] for entry in comparison) == pytest.approx(
            sum(job.cost_seconds for job in sharded.stats.jobs)
        )

    def test_cli_run_appends_estimated_vs_actual(self, capsys):
        code = main(
            ["explain", "MG1", "--preset", "tiny", "--planner", "cost", "--run"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "estimated vs actual (per MR cycle):" in out
        assert "ra:agg-join" in out
        assert "executed: " in out

    def test_cli_sharded_run_fills_every_actual(self, capsys):
        code = main(
            ["explain", "MG3", "--preset", "tiny", "--planner", "cost", "--run",
             "--shards", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        table = out[out.index("estimated vs actual (per MR cycle):"):]
        assert "—" not in table
        assert "no exchange term" in table

    def test_cli_json_emits_schema(self, capsys):
        code = main(
            [
                "explain",
                "MG1",
                "--preset",
                "tiny",
                "--planner",
                "cost",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f'"schema": "{EXPLAIN_SCHEMA}"' in out
        assert '"chosen": "composite"' in out


# -- side-effect freedom ------------------------------------------------------


def trace_shape(recorder):
    """The deterministic slice of a trace: span tree with simulated
    clocks and metrics, events with simulated times (wall times vary)."""
    spans = [
        (span.name, span.kind, span.sim_start, span.sim_end,
         tuple(sorted(span.metrics.items())))
        for span in recorder.spans
    ]
    events = [(event.name, event.sim_time) for event in recorder.events]
    return spans, events, recorder.sim_now


@pytest.mark.parametrize("engine_name", ["hive-naive", "hive-mqo"])
def test_hive_explain_leaves_no_trace(engine_name, bsbm_tiny):
    """``explain(); run()`` must equal a cold ``run()`` on both sinks —
    spans, counters and simulated clocks in the trace, every instrument
    in the metrics registry: the probe execution is fully detached."""
    query = to_analytical(get_query("MG1").sparql)
    engine = make_engine(engine_name)

    def observed(do_explain):
        with obs.tracing() as tracer, metrics.collecting() as registry:
            if do_explain:
                explain(query, engine=engine_name, graph=bsbm_tiny)
            engine.execute(query, bsbm_tiny, EngineConfig())
        return trace_shape(tracer), metrics.snapshot_dict(registry)

    assert observed(do_explain=True) == observed(do_explain=False)


def test_explain_alone_reaches_no_sink(bsbm_tiny):
    """The ISSUE 18 reproduction: the Hive probe used to leave
    ``mr_jobs_total`` and the ``mr_*_seconds`` histograms in an installed
    registry, because there was no third ``detached()`` to call."""
    with obs.tracing() as tracer, metrics.collecting() as registry:
        explain(get_query("MG1").sparql, engine="hive-naive", graph=bsbm_tiny)
        explain_report(
            get_query("MG1").sparql,
            engine="rapid-analytics",
            graph=bsbm_tiny,
            config=EngineConfig(planner="cost"),
        )
    assert trace_shape(tracer) == ([("trace", "root", 0.0, 0.0, ())], [], 0.0)
    assert registry.families(include_volatile=True) == []


def test_planner_section_leaves_no_trace(bsbm_tiny):
    """The candidate pricing (statistics profile, store load) runs
    detached too: explaining an adaptive plan emits nothing."""
    query = to_analytical(get_query("MG1").sparql)
    with obs.tracing() as recorder:
        explain(
            query,
            engine="rapid-analytics",
            graph=bsbm_tiny,
            config=EngineConfig(planner="cost"),
        )
    assert trace_shape(recorder) == ([("trace", "root", 0.0, 0.0, ())], [], 0.0)
