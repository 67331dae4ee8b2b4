"""Nested TripleGroup Algebra: data model, operators, planners, engines."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.ntga.composite": ("build_composite_n",),
        "repro.ntga.overlap": ("patterns_overlap",),
        "repro.ntga.planner": ("plan_rapid_analytics",),
    },
)
