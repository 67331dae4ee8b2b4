"""Figure 8(b): MG1-MG4 on BSBM-2M (4x scale).

Paper shape: all gains persist or grow at the larger scale — in
particular RAPIDAnalytics' gain over the Hive approaches increases from
BSBM-500K to BSBM-2M (90-93% → 97% for MG1-MG2 in the paper), and
Hive(MQO) overtakes naive Hive as materialization savings grow.  The
cycle counts (Figure 8(a)'s) and the Naive/RA ratio at both scales that
EXPERIMENTS.md prints are ``test_experiments_md.py``'s.
"""


def test_figure8b_gain_grows_with_scale(paper):
    """The naive-Hive/RAPIDAnalytics cost ratio does not fall from
    BSBM-500K to BSBM-2M, on any query."""
    small, large = paper("figure8a", "figure8b")
    for qid in large.query_ids():
        assert large.speedup(qid, "hive-naive") >= small.speedup(qid, "hive-naive"), qid


def test_figure8b_mqo_overtakes_naive_at_scale(paper):
    """At BSBM-2M the MQO rewrite beats naive Hive on every MG query
    (the paper: 'Hive (MQO) did better than Hive for most cases with
    larger dataset')."""
    result = paper("figure8b")
    for qid in result.query_ids():
        per_engine = result.for_query(qid)
        assert per_engine["hive-mqo"].cost_seconds < per_engine["hive-naive"].cost_seconds, qid
