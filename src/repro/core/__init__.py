"""Core: the analytical query model, engines facade, and reference oracle."""

from repro.core.explain import describe_analytical, explain
from repro.core.olap import cube, grouping_sets, rollup, template_from_sparql
from repro.core.engines import (
    ENGINE_FACTORIES,
    PAPER_ENGINES,
    make_engine,
    run_all_engines,
    run_query,
    to_analytical,
)
from repro.core.query_model import (
    AggregateSpec,
    AnalyticalQuery,
    GraphPattern,
    GroupingSubquery,
    PropKey,
    StarJoin,
    StarPattern,
    decompose_stars,
    from_select_query,
    parse_analytical,
    prop_key_of,
)
from repro.core.reference import ReferenceEngine, evaluate_analytical
from repro.core.results import EngineConfig, ExecutionReport, Row

__all__ = [
    "cube",
    "describe_analytical",
    "explain",
    "grouping_sets",
    "rollup",
    "template_from_sparql",
    "AggregateSpec",
    "AnalyticalQuery",
    "ENGINE_FACTORIES",
    "EngineConfig",
    "ExecutionReport",
    "GraphPattern",
    "GroupingSubquery",
    "PAPER_ENGINES",
    "PropKey",
    "ReferenceEngine",
    "Row",
    "StarJoin",
    "StarPattern",
    "decompose_stars",
    "evaluate_analytical",
    "from_select_query",
    "make_engine",
    "parse_analytical",
    "prop_key_of",
    "run_all_engines",
    "run_query",
    "to_analytical",
]
