"""Table 3 (left): single-grouping queries G1-G4 on BSBM.

Paper: Hive needs 4 MR cycles per query, RAPIDAnalytics 2, with ~80%
gains on BSBM-500K that persist on BSBM-2M.  Asserted on the harness's
one run of each scale: RAPIDAnalytics wins at both scales, by more
than 2x at BSBM-2M; the cycle counts are ``test_experiments_md.py``'s.
"""


def test_rapid_analytics_wins_at_both_scales(paper):
    small, large = paper("table3-bsbm-500k", "table3-bsbm-2m")
    for qid in large.query_ids():
        assert small.speedup(qid, "hive-naive") > 1, qid
        speedup = large.speedup(qid, "hive-naive")
        assert speedup > 2.0, f"{qid} at 2M: expected a clear win, got {speedup:.2f}x"
