"""Cross-cutting invariants over the whole catalog.

* serializer round-trip: every catalog query re-parses to the same AST
  and decomposes to the same analytical model;
* explain/execution consistency: the NTGA plans EXPLAIN prints have
  exactly the cycle counts the engines then execute.
"""

import pytest

from repro.bench.catalog import CATALOG
from repro.core.explain import explain
from repro.core.query_model import from_select_query
from repro.sparql.parser import parse_query
from repro.sparql.serializer import serialize_query


@pytest.mark.parametrize("qid", sorted(CATALOG))
def test_catalog_query_serializer_round_trip(qid):
    original = parse_query(CATALOG[qid].sparql)
    reparsed = parse_query(serialize_query(original))
    assert reparsed == original
    assert from_select_query(reparsed) == from_select_query(original)


@pytest.mark.parametrize("engine", ["rapid-analytics", "rapid-plus"])
@pytest.mark.parametrize("qid", sorted(CATALOG))
def test_explain_cycle_count_matches_execution(qid, engine, base_run):
    text = explain(CATALOG[qid].sparql, engine=engine)
    # "rapid-analytics plan (3 MR cycles):"
    declared = int(text.split("plan (")[1].split(" MR cycles")[0])
    assert declared == base_run(qid, engine, "default").cycles, text
