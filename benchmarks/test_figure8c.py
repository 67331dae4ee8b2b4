"""Figure 8(c): MG6-MG10 on Chem2Bio2RDF.

Paper shape: MG6-MG8 (small VP relations, Hive map-joins) still show
40-60% RAPIDAnalytics gains; MG9-MG10 (large medline relations) behave
like the BSBM results with ~90% gains; cycle counts 13/8/7/4 for MG6
(``test_experiments_md.py``).
"""


def test_figure8c_rapid_analytics_wins(paper):
    result = paper("figure8c")
    for qid in result.query_ids():
        costs = {engine: m.cost_seconds for engine, m in result.for_query(qid).items()}
        assert min(costs, key=costs.get) == "rapid-analytics", qid
        # paper: 40-60% on MG6-MG8, ~90% on MG9-MG10
        assert 1 - costs["rapid-analytics"] / costs["hive-naive"] > 0.40, qid
