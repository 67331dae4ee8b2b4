"""Observability goldens: the committed metrics snapshot and planner
calibration baseline must reproduce byte-for-byte.

Two pins:

* ``benchmarks/golden/metrics-chem-overlap.json`` — the
  ``repro-metrics/v1`` snapshot of the chem-overlap serve workload under
  the cost planner.  Note the committed calibration verdict is
  ``"drifting"``: on the tiny preset the cardinality estimator misses
  MG7/MG8 badly (q-error up to 46x) while cost stays calibrated — that
  is real, honest telemetry, and the golden pins it so an estimator
  change shows up as a diff, not silence.
* ``benchmarks/golden/calibration-mg.json`` — per-query q-error summary for
  MG1-MG4 under the cost planner (``repro-calibration/v1``).
"""

import json
from pathlib import Path

import pytest

from repro.obs.metrics import validate_prometheus, render_prometheus
from repro.report import check_golden
from repro.serve import WorkloadSpec, serve_workload_with_metrics

GOLDEN_DIR = Path(__file__).parent / "golden"
METRICS_GOLDEN = GOLDEN_DIR / "metrics-chem-overlap.json"
CALIBRATION_GOLDEN = GOLDEN_DIR / "calibration-mg.json"

SPEC = WorkloadSpec.from_spec(
    "seeds=2,clients=3,mix=chem-overlap,requests=16,planner=cost"
)


@pytest.fixture(scope="module")
def fresh_snapshot():
    _, snapshot = serve_workload_with_metrics(SPEC)
    return snapshot


def test_metrics_snapshot_matches_golden_byte_for_byte(fresh_snapshot):
    fresh = json.dumps(fresh_snapshot, indent=2, sort_keys=True) + "\n"
    assert fresh == METRICS_GOLDEN.read_text()


def test_golden_snapshot_pins_slo_and_drift_verdicts():
    golden = json.loads(METRICS_GOLDEN.read_text())
    assert golden["schema"] == "repro-metrics/v1"
    assert golden["slo"]["pass"] is True
    calibration = golden["calibration"]
    assert calibration["verdict"] == "drifting"  # MG7/MG8 cardinality
    verdicts = {entry["query"]: entry["verdict"] for entry in calibration["queries"]}
    assert verdicts["G8"] == "ok"
    assert verdicts["MG7"] == "drifting"
    assert verdicts["MG8"] == "drifting"
    # cost stays calibrated even where cardinality drifts
    assert all(
        entry["cost_q_error"]["max"] <= 2.0 for entry in calibration["queries"]
    )


def test_golden_snapshot_exports_valid_prometheus():
    golden = json.loads(METRICS_GOLDEN.read_text())
    assert validate_prometheus(render_prometheus(golden)) == []


def test_calibration_baseline_matches_golden():
    assert check_golden(CALIBRATION_GOLDEN) == []
