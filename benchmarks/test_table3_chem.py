"""Table 3 (right): single-grouping queries G5-G9 on Chem2Bio2RDF.

Paper: with small VP tables Hive's map-joins keep it competitive on
G5-G8 (it even beats RAPIDAnalytics on G7 by 12s), while G9's large
medline tables give RAPIDAnalytics an 83% gain.  The shape assertions:
Hive's plans on G5-G8 are mostly map-only; the Hive/RA cost ratio on
G9 is decisively in RA's favour and larger than on G5.
"""


def test_hive_map_joins_small_tables(paper):
    result = paper("table3-chem")
    for qid in ("G5", "G6", "G7", "G8"):
        hive = result.for_query(qid)["hive-naive"]
        assert hive.map_only_cycles >= hive.cycles - 2, qid


def test_g9_gain_exceeds_small_table_queries(paper):
    """RAPIDAnalytics' advantage on large-table G9 must exceed its
    advantage on map-join-friendly G5 (the paper's contrast)."""
    result = paper("table3-chem")
    assert result.speedup("G9", "hive-naive") > result.speedup("G5", "hive-naive")
