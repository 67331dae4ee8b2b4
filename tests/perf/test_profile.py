"""The bench --profile harness: v2 schema, the flat A/B pass, and what
its report kind certifies and compares (the BENCH_PR6 golden).  The
generic round-trip/drift cases are ``tests/core/test_report.py``."""

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.perf.profile import (
    KIND,
    PROFILE_SCHEMA,
    profile_experiments,
    render_report,
)
from repro.report import diff_reports, load_report, write_report

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_GOLDEN = REPO_ROOT / "benchmarks" / "golden" / "BENCH_PR6.json"


@pytest.fixture(scope="module")
def tiny_report():
    return profile_experiments(["table3-bsbm-tiny"], reference=False)


class TestProfileV2:
    def test_schema_and_flat_verdict(self, tiny_report):
        assert tiny_report["schema"] == "repro-bench-profile/v2"
        assert PROFILE_SCHEMA == "repro-bench-profile/v2"
        assert tiny_report["answers_match_flat"] is True
        # reference pass skipped -> vacuous claim stays None
        assert tiny_report["counters_match_reference"] is None

    def test_runs_carry_flat_counters_and_reduction(self, tiny_report):
        runs = tiny_report["experiments"][0]["runs"]
        assert runs
        for run in runs:
            assert run["shuffle_bytes_flat"] >= run["shuffle_bytes"]
            assert run["materialized_bytes_flat"] >= run["materialized_bytes"]
            assert "rows_digest" in run
            assert "flat_wall_seconds" in run
        ntga = [run for run in runs if run["engine"] == "rapid-analytics"]
        hive = [run for run in runs if run["engine"] == "hive-naive"]
        assert all(run["shuffle_reduction"] > 0 for run in ntga)
        assert all((run["shuffle_reduction"] or 0) == 0 for run in hive)

    def test_flat_baseline_can_be_skipped(self):
        report = profile_experiments(
            ["table3-bsbm-tiny"], reference=False, flat_baseline=False
        )
        assert report["answers_match_flat"] is None
        assert "shuffle_reduction" not in report["experiments"][0]["runs"][0]

    def test_render_shows_reduction_column(self, tiny_report):
        rendered = render_report(tiny_report)
        assert "reduc" in rendered
        assert "answers_match_flat=True" in rendered

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            profile_experiments(["nope"], reference=False)


def _synthetic_report(reductions):
    """A minimal v2 report with one MG-class run per given reduction."""
    return {
        "schema": PROFILE_SCHEMA,
        "answers_match_flat": True,
        "experiments": [
            {
                "exp_id": "figure8a",
                "runs": [
                    {
                        "qid": f"MG{i + 1}",
                        "engine": "rapid-analytics",
                        "rows": 10,
                        "rows_digest": f"d{i}",
                        "cycles": 3,
                        "map_only_cycles": 1,
                        "shuffle_bytes": 700,
                        "materialized_bytes": 900,
                        "shuffle_bytes_flat": 1000,
                        "materialized_bytes_flat": 1200,
                        "shuffle_reduction": reduction,
                        "failed": False,
                    }
                    for i, reduction in enumerate(reductions)
                ],
            }
        ],
    }


class TestProfileGoldenChecker:
    def test_accepts_qualifying_golden(self):
        assert KIND.certify(_synthetic_report([0.3, 0.4, 0.1])) == []

    def test_rejects_insufficient_reduction(self):
        problems = KIND.certify(_synthetic_report([0.3, 0.1, 0.05]))
        assert any("only 1 MG-class" in p for p in problems)

    def test_rejects_missing_flat_verdict(self):
        report = _synthetic_report([0.3, 0.4])
        report["answers_match_flat"] = None
        problems = KIND.certify(report)
        assert any("answers_match_flat" in p for p in problems)

    def test_rejects_wrong_schema(self, tmp_path):
        path = write_report({"schema": "repro-bench-profile/v1"}, tmp_path / "v1.json")
        with pytest.raises(ReproError, match="repro-bench-profile/v1"):
            load_report(path)

    def test_wall_clock_fields_are_not_compared(self):
        golden = _synthetic_report([0.3, 0.4])
        fresh = _synthetic_report([0.3, 0.4])
        fresh["experiments"][0]["wall_seconds"] = 9.9
        fresh["experiments"][0]["runs"][0]["phases"] = {"jobs": 1.0}
        assert diff_reports(KIND, golden, fresh) == []

    def test_fresh_drift_detected(self):
        """``shuffle_reduction`` is a rounded ratio of two integers that
        are compared exactly, so it is compared exactly too."""
        golden = _synthetic_report([0.3, 0.4])
        fresh = _synthetic_report([0.3, 0.401])
        problems = diff_reports(KIND, golden, fresh)
        assert len(problems) == 1
        assert "qid=MG2" in problems[0] and "shuffle_reduction" in problems[0]

    def test_fresh_counter_mismatch_detected(self):
        golden = _synthetic_report([0.3, 0.4])
        fresh = _synthetic_report([0.3, 0.4])
        fresh["experiments"][0]["runs"][0]["rows_digest"] = "tampered"
        fresh["experiments"][0]["runs"][1]["shuffle_bytes"] = 1
        problems = diff_reports(KIND, golden, fresh)
        assert any("rows_digest" in p for p in problems)
        assert any("shuffle_bytes" in p for p in problems)

    def test_missing_run_detected(self):
        golden = _synthetic_report([0.3, 0.4])
        fresh = _synthetic_report([0.3])
        problems = diff_reports(KIND, golden, fresh)
        assert any("present only in golden" in p for p in problems)


def test_committed_bench_pr6_golden_self_checks():
    """The committed BENCH_PR6.json must keep certifying the tentpole
    claim: >= 25% bytes-shuffled reduction on at least two MG-class
    queries with flat-identical answers."""
    kind, golden = load_report(BENCH_GOLDEN)
    assert kind is KIND and golden["schema"] == PROFILE_SCHEMA
    assert KIND.certify(golden) == []
