"""Table 4: MG11-MG18 on PubMed, all four engines (60-node cluster).

Paper shape: RAPIDAnalytics beats both Hive approaches on every query
and beats RAPID+ by 40-48%; MG16 ("News") costs less than MG15
("Journal Article") on every engine; MG13 (MeSH headings) is naive
Hive's worst case — at cluster scale it ran out of HDFS space,
reproduced here under ``MG13_CAPACITY``.
"""

from repro.core.engines import PAPER_ENGINES


def test_table4_rapid_analytics_wins(paper):
    result = paper("table4")
    for qid in result.query_ids():
        costs = {engine: m.cost_seconds for engine, m in result.for_query(qid).items()}
        assert min(costs, key=costs.get) == "rapid-analytics", qid
        assert 1 - costs["rapid-analytics"] / costs["rapid-plus"] > 0.25, qid  # paper: 40-48%


def test_mg15_mg16_selectivity_contrast(paper):
    """MG16 ("News", high selectivity) must cost less than MG15
    ("Journal Article") on every engine, as in Table 4."""
    result = paper("table4")
    lo, hi = result.for_query("MG15"), result.for_query("MG16")
    for engine in PAPER_ENGINES:
        assert hi[engine].cost_seconds < lo[engine].cost_seconds, engine


def test_mg13_capacity(paper):
    """The Table 4 footnote: naive Hive exhausts HDFS on MG13."""
    by_engine = paper("mg13-disk").for_query("MG13")
    assert by_engine["hive-naive"].failed == "HDFSOutOfSpaceError"
    assert not by_engine["rapid-analytics"].failed
