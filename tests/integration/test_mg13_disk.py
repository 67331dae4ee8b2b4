"""Integration: the paper's MG13 HDFS-exhaustion finding.

Table 4 reports that naive Hive "eventually failed due to insufficient
HDFS disk space" on MG13 — one star-join cycle materializes the
MeSH-heading-expanded join output twice — while the other approaches
finish.  Under a simulated capacity limit the same hierarchy appears:
naive Hive demands the most disk, RAPIDAnalytics (nested triplegroups,
shared execution) the least.
"""

import pytest

from repro.bench.catalog import get_query
from repro.bench.harness import MG13_CAPACITY, mg13_disk_exhaustion, pubmed_config
from repro.core.engines import make_engine, to_analytical
from repro.datasets import pubmed
from repro.errors import HDFSOutOfSpaceError


@pytest.fixture(scope="module")
def pubmed_paper():
    return pubmed.generate(pubmed.preset("paper"))


@pytest.fixture(scope="module")
def mg13():
    return to_analytical(get_query("MG13").sparql)


def test_disk_demand_hierarchy(pubmed_paper, mg13):
    config = pubmed_config()
    totals = {}
    for engine in ("hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics"):
        report = make_engine(engine).execute(mg13, pubmed_paper, config)
        totals[engine] = report.load_bytes + report.stats.total_materialized_bytes
    assert totals["hive-naive"] > totals["hive-mqo"]
    assert totals["hive-mqo"] > totals["rapid-plus"]
    assert totals["rapid-plus"] > totals["rapid-analytics"]


def test_naive_fails_under_capacity_others_complete(pubmed_paper, mg13):
    for engine, should_complete in (
        ("hive-naive", False),
        ("hive-mqo", True),
        ("rapid-plus", True),
        ("rapid-analytics", True),
    ):
        config = pubmed_config(hdfs_capacity=MG13_CAPACITY)
        if should_complete:
            report = make_engine(engine).execute(mg13, pubmed_paper, config)
            assert report.rows
        else:
            with pytest.raises(HDFSOutOfSpaceError):
                make_engine(engine).execute(mg13, pubmed_paper, config)


def test_harness_records_failure_instead_of_raising():
    result = mg13_disk_exhaustion(MG13_CAPACITY)
    by_engine = result.for_query("MG13")
    assert by_engine["hive-naive"].failed == "HDFSOutOfSpaceError"
    assert by_engine["rapid-analytics"].failed == ""
    assert by_engine["rapid-analytics"].rows > 0
