"""Golden counter invariants.

The files under ``tests/golden/`` record, for one multi-grouping query
per dataset on every engine, the full invariant slice of the simulator:
workflow counters, per-job byte/record volumes, simulated cost, and an
order-sensitive digest of the result rows.  Re-capturing them with the
current code must be bit-identical — both with the performance caches
on (the default) and in reference mode (caches off) — so the perf fast
paths provably never change a simulated number.
"""

import json
from pathlib import Path

import pytest

from repro.perf import reference_mode
from repro.perf.goldens import GOLDEN_SCHEMA
from repro.report import check_golden

GOLDEN_ROOT = Path(__file__).resolve().parents[1] / "golden"
#: Table 3's single-grouping BSBM slice (G1-G4, Hive naive vs
#: RAPIDAnalytics), kept beside the bench goldens.
TABLE3_TINY = GOLDEN_ROOT.parents[1] / "benchmarks" / "golden" / "table3-bsbm-tiny.json"
# tests/golden/ also hosts other schema contracts (e.g. repro-trace/v1);
# only counter goldens are recapturable here.
GOLDEN_FILES = sorted(
    path
    for path in (*GOLDEN_ROOT.glob("*.json"), TABLE3_TINY)
    if json.loads(path.read_text()).get("schema") == GOLDEN_SCHEMA
)


def test_golden_files_are_committed():
    assert GOLDEN_FILES, f"no golden files under {GOLDEN_ROOT}"


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_recapture_is_bit_identical(path):
    assert json.loads(path.read_text())["schema"] == GOLDEN_SCHEMA
    assert check_golden(path) == []


def test_reference_mode_recapture_matches_golden():
    """The uncached seed semantics and the cached fast path must agree
    on every golden number, not just on row counts."""
    with reference_mode():
        for path in (GOLDEN_ROOT / "bsbm-tiny.json", TABLE3_TINY):
            assert check_golden(path) == [], path.name
