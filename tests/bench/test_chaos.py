"""The fault-injection report: spec parsing, determinism, schema,
verdicts.  Golden round-trip and drift detection are
``tests/core/test_report.py``."""

import json
from dataclasses import asdict

import pytest

from repro.bench.chaos import (
    CHAOS_SCHEMA,
    KIND,
    ChaosSpec,
    chaos_soak_report,
    render_chaos_report,
)
from repro.datasets import bsbm
from repro.errors import CheckpointError, ReproError
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.faults import FaultPlan


def soak(text, graph=None, experiment="table3-bsbm-tiny"):
    spec = ChaosSpec.from_spec(text)
    return chaos_soak_report(experiment, spec.plans(), spec.policy(), graph=graph)


@pytest.fixture(scope="module")
def tiny_graph():
    return bsbm.generate(bsbm.preset("tiny"))


@pytest.fixture(scope="module")
def tiny_report(tiny_graph):
    return soak("seeds=2,rate=0.1", tiny_graph)


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
        plans = spec.plans()
        assert [plan.seed for plan in plans] == [1, 2]
        assert {plan.task_failure_rate for plan in plans} == {0.1}
        assert {plan.max_attempts for plan in plans} == {3}
        assert spec.policy().max_resubmissions == 5

    def test_roundtrips_through_report_dict(self, tiny_report):
        """The report's head re-runs it: its plans and policy are the spec's."""
        spec = ChaosSpec.from_spec("seeds=2,rate=0.1")
        assert [FaultPlan(**plan) for plan in tiny_report["fault_plans"]] == spec.plans()
        assert RecoveryPolicy(**tiny_report["recovery"]) == spec.policy()
        assert tiny_report["fault_plans"] == [asdict(plan) for plan in spec.plans()]


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
            assert not run["failed"] and run["cost_seconds"] is not None, key
            assert run["rows_match_baseline"], key
            assert run["base_counters_match_baseline"], key
        assert KIND.violations(tiny_report) == []

    def test_summary_accounting_consistent(self, tiny_report):
        for engine, stats in tiny_report["summary"].items():
            runs = [run for run in tiny_report["runs"] if run["engine"] == engine]
            assert stats["runs"] == 8
            assert stats["completed"] == 8
            assert stats["failures"] == sum(run["recovery"]["resubmissions"] for run in runs)
            assert stats["wasted_seconds"] == pytest.approx(
                sum(run["recovery"]["wasted_seconds"] for run in runs), abs=1e-5
            )
            if stats["failures"] == 0:
                assert stats["lost_seconds_per_failure"] is None
            else:
                assert stats["lost_seconds_per_failure"] == pytest.approx(
                    (stats["wasted_seconds"] + stats["overhead_seconds"]) / stats["failures"],
                    abs=1e-5,
                )
                assert stats["lost_seconds_per_failure"] > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            soak("seeds=1,rate=0.1", experiment="nope")

    def test_plans_need_distinct_seeds(self):
        plan = FaultPlan(seed=3, task_failure_rate=0.1)
        for plans in ([], [plan, plan]):
            with pytest.raises(ReproError, match="distinct seeds"):
                chaos_soak_report("table3-bsbm-tiny", plans)

    def test_render_mentions_verdicts(self, tiny_report):
        rendered = render_chaos_report(tiny_report)
        assert "chaos soak" in rendered and "budget=64" in rendered
        assert (
            "completed: 16 of 16 runs; rows+counters bit-identical to "
            "fault-free: 16 of 16 completed" in rendered
        )


class TestDeterminism:
    def test_report_is_bit_identical_across_runs(self, tiny_graph, tiny_report):
        again = soak("seeds=2,rate=0.1", tiny_graph)
        assert again == tiny_report
        assert json.dumps(again, sort_keys=True) == json.dumps(
            tiny_report, sort_keys=True
        )
