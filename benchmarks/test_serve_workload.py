"""Serving workload: cross-request sharing strictly beats cold solo runs.

The tentpole claim of the serving layer, replayed as a benchmark-shaped
check: on the chem-overlap mix (four mutually overlapping assay-star
queries), the concurrent service — result cache + dedup + MQO batching —
must answer every request bit-identical to a cold solo execution while
spending strictly less total simulated cost than the no-sharing
baseline on every seed.  Mirrors the committed golden
``benchmarks/golden/serve-chem-overlap.json``.
"""

import pytest

from repro.serve.workload import WorkloadSpec, serve_workload_report

# The golden's spec: two seeds, three simulated clients, sixteen
# requests drawn uniformly from MG6/MG7/MG8/G8.
SPEC = WorkloadSpec.from_spec("seeds=2,clients=3,mix=chem-overlap,requests=16")


@pytest.fixture(scope="module")
def serve_report():
    return serve_workload_report(SPEC)


def test_every_answer_matches_cold_solo(serve_report):
    assert serve_report["verdicts"]["all_rows_match"] is True
    for run in serve_report["runs"]:
        assert run["rows_match_solo"], run["seed"]
        assert run["mismatched_requests"] == []


def test_sharing_strictly_reduces_cost_on_every_seed(serve_report):
    assert serve_report["verdicts"]["cost_strictly_reduced"] is True
    for run in serve_report["runs"]:
        assert run["served_cost_seconds"] < run["baseline_cost_seconds"], run["seed"]
    summary = serve_report["summary"]
    assert summary["total_saved_seconds"] > 0
    assert summary["total_saved_ratio"] > 0.5  # the mix shares most work


def test_sharing_layers_all_engage(serve_report):
    """The savings must come from real sharing, not accounting: every
    seed merges batches, dedups, and hits the result cache."""
    for run in serve_report["runs"]:
        counters = run["counters"]
        assert counters["batch_merges"] > 0, run["seed"]
        assert counters["result_cache_hits"] > 0, run["seed"]
        assert counters["units_batch"] > 0, run["seed"]


def test_all_requests_complete(serve_report):
    for run in serve_report["runs"]:
        assert run["statuses"] == {"ok": run["requests"]}
