"""Core: the analytical query model, engines facade, and reference oracle."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.explain": ("describe_analytical", "explain"),
        "repro.core.olap": ("cube", "grouping_sets", "rollup", "template_from_sparql"),
        "repro.core.engines": (
            "ENGINE_FACTORIES",
            "PAPER_ENGINES",
            "make_engine",
            "run_all_engines",
            "run_query",
            "to_analytical",
        ),
        "repro.core.query_model": (
            "AggregateSpec",
            "AnalyticalQuery",
            "GraphPattern",
            "GroupingSubquery",
            "PropKey",
            "StarJoin",
            "StarPattern",
            "decompose_stars",
            "from_select_query",
            "parse_analytical",
            "prop_key_of",
        ),
        "repro.core.reference": ("ReferenceEngine", "evaluate_analytical"),
        "repro.core.results": ("EngineConfig", "ExecutionReport", "Row"),
    },
)
