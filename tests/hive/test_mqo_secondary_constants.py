"""hive-mqo: a concrete-object pattern only one subquery has.

Such a pattern is a *secondary* key of its composite star, joined LEFT
OUTER, and binds no variable -- so before its match was recorded in the
joined rows, the extraction could not require it and hive-mqo answered
as if the pattern were absent.  NTGA gets this right by construction
(σ^γopt drops non-matching triples, α requires the key).
"""

import pytest

from repro.bench.catalog import get_query
from repro.core.engines import run_query
from tests.conftest import canonical_sorted_rows

MG18_ANCHOR = '?p pm:pub_type "Journal Article" ;'
MG1_ANCHOR = "?p2 a bsbm:ProductType1 ;"
JOURNAL15 = "<http://pubmed.example.org/instances/journal15>"
PRODUCER0 = "<http://bsbm.example.org/instances/Producer0>"

#: case -> (dataset, query, the star it extends, the pattern it adds)
CASES = {
    "journal-present": ("pubmed", "MG18", MG18_ANCHOR, f"pm:journal {JOURNAL15}"),
    "journal-absent": ("pubmed", "MG18", MG18_ANCHOR, "pm:journal <http://nope/x>"),
    "property-absent": ("pubmed", "MG18", MG18_ANCHOR, 'pm:pb_type "Journal Article"'),
    "producer": ("bsbm", "MG1", MG1_ANCHOR, f"bsbm:producer {PRODUCER0}"),
    "type-absent": ("bsbm", "MG1", MG1_ANCHOR, "a <http://nope/C>"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_pattern_is_required_of_the_subquery_that_has_it(case, pubmed_tiny, bsbm_small):
    dataset, qid, anchor, extra = CASES[case]
    graph = {"pubmed": pubmed_tiny, "bsbm": bsbm_small}[dataset]
    base = get_query(qid).sparql
    sparql = base.replace(anchor, f"{anchor} {extra} ;", 1)
    assert sparql != base
    expected = canonical_sorted_rows(run_query(sparql, graph, engine="reference").rows)
    for engine in ("hive-mqo", "hive-naive", "rapid-analytics"):
        rows = canonical_sorted_rows(run_query(sparql, graph, engine=engine).rows)
        assert rows == expected, engine
    if case == "journal-present":
        assert expected  # the constraint selects, it does not empty
