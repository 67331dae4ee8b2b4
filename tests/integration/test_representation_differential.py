"""Factorized-vs-flat regression beyond the composition matrix.

The factorized representation changes *bytes moved*, never *rows
produced*: the matrix's ``flat`` cells pin every catalog query on both
NTGA engines to its factorized answers.  Here: factorization must
actually save bytes on the multi-valued stars, and the serving layer's
sharing machinery (fingerprint cache keys, batching decisions, solo
oracles) must be representation-blind.
"""

from dataclasses import replace

import pytest

from repro.bench.catalog import CATALOG
from repro.core.engines import make_engine
from repro.ntga.factorized import active_representation
from repro.serve.fingerprint import fingerprint_query
from repro.serve.workload import WorkloadSpec, serve_workload_report
from tests.conftest import bench_config, catalog_graph, catalog_query
from tests.integration import test_composition_matrix as matrix
from tests.integration.test_composition_matrix import AXIS, QIDS, Cell

#: The matrix's ``flat`` cells under this suite's ids: answers identical
#: in values and order, cycles equal, the factorized run never shuffling more.
test_answers_bit_identical_and_shuffle_never_larger = matrix.view(
    lambda qid, engine: [Cell(qid, engine, "bench", AXIS["bench", "flat"])],
    [(qid, engine) for qid in QIDS for engine in ("rapid-plus", "rapid-analytics")],
)


def test_multivalued_queries_reduce_shuffle(request, base_run):
    """On the MG-class BSBM stars factorization must actually save bytes,
    not just break even (the composition matrix's ``flat`` cells check
    it never costs bytes)."""
    reduced = []
    for qid in ("MG1", "MG2", "MG3", "MG4"):
        factorized = base_run(qid, "rapid-analytics", "bench")
        flat = make_engine("rapid-analytics").execute(
            catalog_query(qid),
            catalog_graph(request, qid),
            replace(bench_config(qid), representation="flat"),
        )
        if factorized.stats.total_shuffle_bytes < flat.stats.total_shuffle_bytes:
            reduced.append(qid)
    assert len(reduced) >= 2, f"shuffle shrank only on {reduced}"


def test_fingerprint_cache_keys_are_representation_blind():
    text = CATALOG["MG6"].sparql
    with active_representation("factorized"):
        factorized_digest = fingerprint_query(text).digest
    with active_representation("flat"):
        flat_digest = fingerprint_query(text).digest
    assert factorized_digest == flat_digest


@pytest.mark.parametrize("mix", ["chem-overlap"])
def test_serve_workload_representation_ab(mix, chem_tiny):
    """The serve regression: same workload with factorization on and off
    — answers stay bit-identical to the solo oracles on both sides, the
    solo oracles agree across representations, and the sharing layers
    (admission, dedup, caches, batching) make identical decisions."""
    reports = {}
    for representation in ("factorized", "flat"):
        spec = WorkloadSpec.from_spec(
            f"seeds=1,clients=2,mix={mix},requests=10,"
            f"representation={representation}"
        )
        reports[representation] = serve_workload_report(spec, graph=chem_tiny)
    factorized, flat = reports["factorized"], reports["flat"]
    assert factorized["verdicts"]["all_rows_match"]
    assert flat["verdicts"]["all_rows_match"]
    for qid, baseline in factorized["baseline"].items():
        assert baseline["digest"] == flat["baseline"][qid]["digest"]
        assert baseline["rows"] == flat["baseline"][qid]["rows"]
    for fact_run, flat_run in zip(factorized["runs"], flat["runs"]):
        assert fact_run["statuses"] == flat_run["statuses"]
        assert fact_run["sources"] == flat_run["sources"]
        assert fact_run["counters"] == flat_run["counters"]
