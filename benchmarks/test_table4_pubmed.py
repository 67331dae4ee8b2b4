"""Table 4: MG11-MG18 on PubMed, all four engines (60-node cluster).

Paper shape: RAPIDAnalytics beats both Hive approaches on every query
and beats RAPID+ by 40-48%; MG13 (MeSH headings) is naive Hive's worst
case — at cluster scale it ran out of HDFS space, reproduced here by
``test_mg13_capacity``.
"""

import pytest

from benchmarks.conftest import run_benchmark
from repro.bench.harness import MG13_CAPACITY, mg13_disk_exhaustion, pubmed_config
from repro.core.engines import PAPER_ENGINES, make_engine

QUERIES = ("MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18")


@pytest.mark.parametrize("engine", PAPER_ENGINES)
@pytest.mark.parametrize("qid", QUERIES)
def test_table4(benchmark, qid, engine, pubmed_paper, analytical_queries):
    run_benchmark(benchmark, qid, engine, pubmed_paper, analytical_queries, "pubmed")


@pytest.mark.parametrize("qid", QUERIES)
def test_table4_rapid_analytics_wins(benchmark, qid, pubmed_paper, analytical_queries):
    config = pubmed_config()

    def run_all():
        return {
            engine: make_engine(engine).execute(
                analytical_queries[qid], pubmed_paper, config
            )
            for engine in PAPER_ENGINES
        }

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    costs = {engine: report.cost_seconds for engine, report in reports.items()}
    benchmark.extra_info["costs"] = {k: round(v, 1) for k, v in costs.items()}
    assert min(costs, key=costs.get) == "rapid-analytics"
    gain_over_plus = 1 - costs["rapid-analytics"] / costs["rapid-plus"]
    benchmark.extra_info["gain_over_rapid_plus_pct"] = round(gain_over_plus * 100)
    assert gain_over_plus > 0.25  # paper: 40-48%


def test_mg15_mg16_selectivity_contrast(benchmark, pubmed_paper, analytical_queries):
    """MG16 ("News", high selectivity) must cost less than MG15
    ("Journal Article") on every engine, as in Table 4."""
    config = pubmed_config()

    def run_pair():
        out = {}
        for engine in PAPER_ENGINES:
            lo = make_engine(engine).execute(analytical_queries["MG15"], pubmed_paper, config)
            hi = make_engine(engine).execute(analytical_queries["MG16"], pubmed_paper, config)
            out[engine] = (lo.cost_seconds, hi.cost_seconds)
        return out

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    for engine, (lo, hi) in results.items():
        assert hi < lo, f"{engine}: MG16 ({hi:.1f}) should beat MG15 ({lo:.1f})"


def test_mg13_capacity(benchmark):
    """The Table 4 footnote: naive Hive exhausts HDFS on MG13."""
    result = benchmark.pedantic(
        lambda: mg13_disk_exhaustion(MG13_CAPACITY), rounds=1, iterations=1
    )
    by_engine = result.for_query("MG13")
    benchmark.extra_info["naive_failed"] = by_engine["hive-naive"].failed
    assert by_engine["hive-naive"].failed == "HDFSOutOfSpaceError"
    assert not by_engine["rapid-analytics"].failed
