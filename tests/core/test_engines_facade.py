"""Tests for the public facade (run_query / run_all_engines / coercions)."""

import gc

import pytest

from repro.core.engines import (
    PAPER_ENGINES,
    make_engine,
    run_all_engines,
    run_query,
    to_analytical,
)
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig
from repro.errors import PlanningError
from repro.sparql.parser import parse_query
from tests.conftest import MG1_STYLE_QUERY, canonical_rows


def test_run_query_accepts_text(product_graph):
    report = run_query(MG1_STYLE_QUERY, product_graph)
    assert report.engine == "rapid-analytics"
    assert report.rows


def test_run_query_accepts_parsed_ast(product_graph):
    parsed = parse_query(MG1_STYLE_QUERY)
    report = run_query(parsed, product_graph, engine="hive-naive")
    assert report.engine == "hive-naive"


def test_run_query_accepts_analytical_model(product_graph):
    analytical = to_analytical(MG1_STYLE_QUERY)
    assert isinstance(analytical, AnalyticalQuery)
    report = run_query(analytical, product_graph, engine="reference")
    assert report.rows


def test_to_analytical_is_idempotent():
    analytical = to_analytical(MG1_STYLE_QUERY)
    assert to_analytical(analytical) is analytical


def test_run_all_engines_consistent(product_graph):
    reports = run_all_engines(MG1_STYLE_QUERY, product_graph)
    assert set(reports) == {"hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics"}
    reference = canonical_rows(run_query(MG1_STYLE_QUERY, product_graph, engine="reference").rows)
    for engine, report in reports.items():
        assert canonical_rows(report.rows) == reference, engine


def test_unknown_engine_lists_known():
    with pytest.raises(PlanningError) as exc_info:
        make_engine("spark")
    assert "rapid-analytics" in str(exc_info.value)


def test_readme_quickstart_shape(bsbm_small):
    """The README's quickstart claim: 3 vs 9 MR cycles on MG1."""
    from repro.bench.catalog import get_query

    sparql = get_query("MG1").sparql
    assert run_query(sparql, bsbm_small, engine="rapid-analytics").cycles == 3
    assert run_query(sparql, bsbm_small, engine="hive-naive").cycles == 9


@pytest.mark.parametrize("qid", ["MG1", "MG2", "MG3", "MG4"])
@pytest.mark.parametrize(
    "engine, knobs",
    [(engine, {}) for engine in PAPER_ENGINES] + [("rapid-analytics", {"shards": 2})],
    ids=[*PAPER_ENGINES, "rapid-analytics-2-shards"],
)
def test_a_query_leaves_no_cyclic_garbage(engine, knobs, qid, bsbm_small):
    """What a query allocates dies by reference count: nothing is left
    for the collector, which therefore need not look (DESIGN.md §5).  A
    recursive closure in the overlap check used to strand both graph
    patterns of every multi-grouping query."""
    from repro.bench.catalog import get_query

    sparql, config = get_query(qid).sparql, EngineConfig(**knobs)
    run_query(sparql, bsbm_small, engine=engine, config=config)  # fill the caches
    gc.collect()
    gc.disable()
    try:
        run_query(sparql, bsbm_small, engine=engine, config=config)
        assert gc.collect() == 0
    finally:
        gc.enable()
