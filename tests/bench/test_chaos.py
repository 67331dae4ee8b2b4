"""Chaos soak harness: spec parsing, determinism, schema.  Golden
round-trip and drift detection are ``tests/core/test_report.py``."""

import json

import pytest

from repro.bench.chaos import (
    CHAOS_SCHEMA,
    ChaosSpec,
    chaos_soak_report,
    render_chaos_report,
)
from repro.datasets import bsbm
from repro.errors import CheckpointError, ReproError


@pytest.fixture(scope="module")
def tiny_graph():
    return bsbm.generate(bsbm.preset("tiny"))


@pytest.fixture(scope="module")
def tiny_report(tiny_graph):
    return chaos_soak_report(
        "table3-bsbm-tiny", ChaosSpec.from_spec("seeds=2,rate=0.1"), graph=tiny_graph
    )


class TestSpecParsing:
    def test_minimal(self):
        spec = ChaosSpec.from_spec("seeds=3,rate=0.05")
        assert spec.seeds == 3
        assert spec.rate == 0.05
        assert spec.attempts == 1
        assert spec.budget == 64

    def test_all_keys(self):
        spec = ChaosSpec.from_spec(
            "seeds=2, rate=0.1, attempts=3, budget=5, straggler=0.2, write=0.01"
        )
        assert spec == ChaosSpec(
            seeds=2, rate=0.1, attempts=3, budget=5,
            straggler_rate=0.2, write_failure_rate=0.01,
        )

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "seeds=3",                # missing rate
            "rate=0.1",               # missing seeds
            "seeds=0,rate=0.1",       # seeds < 1
            "seeds=3,rate=1.5",       # rate out of range
            "seeds=3,rate=0.1,attempts=0",
            # Checked by the recovery policy's and the fault plan's own
            # validators, before any run.
            "seeds=1,rate=0.1,budget=0",
            "seeds=1,rate=0.1,write=1.5",
            "seeds=1,rate=0.1,straggler=-1",
            "seeds=x,rate=0.1",       # unparseable int
            "seeds=3,rate=0.1,typo=4",
        ],
    )
    def test_malformed_specs_raise_checkpoint_error(self, text):
        with pytest.raises(CheckpointError):
            ChaosSpec.from_spec(text)

    def test_plan_and_policy_derivation(self):
        spec = ChaosSpec.from_spec("seeds=2,rate=0.1,attempts=3,budget=5")
        plan = spec.plan_for_seed(2)
        assert plan.seed == 2
        assert plan.task_failure_rate == 0.1
        assert plan.max_attempts == 3
        assert spec.policy().max_resubmissions == 5

    def test_roundtrips_through_report_dict(self):
        spec = ChaosSpec.from_spec("seeds=2,rate=0.1")
        assert ChaosSpec(**spec.as_dict()) == spec


class TestReportShape:
    def test_schema_and_dimensions(self, tiny_report):
        assert tiny_report["schema"] == CHAOS_SCHEMA
        assert tiny_report["experiment"] == "table3-bsbm-tiny"
        assert tiny_report["engines"] == ["hive-naive", "rapid-analytics"]
        # 2 seeds x 4 queries x 2 engines
        assert len(tiny_report["runs"]) == 16
        seeds = {run["seed"] for run in tiny_report["runs"]}
        assert seeds == {1, 2}

    def test_every_run_is_bit_identical(self, tiny_report):
        for run in tiny_report["runs"]:
            key = (run["seed"], run["qid"], run["engine"])
            assert run["completed"], key
            assert run["rows_match_baseline"], key
            assert run["base_counters_match_baseline"], key
        assert tiny_report["verdicts"]["all_complete"]
        assert tiny_report["verdicts"]["all_bit_identical"]

    def test_summary_accounting_consistent(self, tiny_report):
        for engine, stats in tiny_report["summary"].items():
            assert stats["runs"] == 8
            assert stats["completed"] == 8
            assert stats["bit_identical"]
            assert stats["lost_seconds"] == pytest.approx(
                stats["wasted_seconds"] + stats["overhead_seconds"], abs=1e-5
            )
            if stats["failures"] == 0:
                assert stats["lost_seconds_per_failure"] is None
            else:
                assert stats["lost_seconds_per_failure"] > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            chaos_soak_report("nope", ChaosSpec.from_spec("seeds=1,rate=0.1"))

    def test_render_mentions_verdicts(self, tiny_report):
        rendered = render_chaos_report(tiny_report)
        assert "chaos soak" in rendered
        assert "bit-identical to fault-free: True" in rendered


class TestDeterminism:
    def test_report_is_bit_identical_across_runs(self, tiny_graph, tiny_report):
        again = chaos_soak_report(
            "table3-bsbm-tiny",
            ChaosSpec.from_spec("seeds=2,rate=0.1"),
            graph=tiny_graph,
        )
        assert again == tiny_report
        assert json.dumps(again, sort_keys=True) == json.dumps(
            tiny_report, sort_keys=True
        )
