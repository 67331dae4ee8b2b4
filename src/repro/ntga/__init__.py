"""Nested TripleGroup Algebra: data model, operators, planners, engines."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.ntga.composite": (
            "CanonicalSubquery",
            "CompositePlan",
            "CompositeStar",
            "build_composite",
            "build_composite_n",
            "single_pattern_plan",
        ),
        "repro.ntga.engine": (
            "NTGAEngine", "rapid_analytics_engine", "rapid_plus_engine"
        ),
        "repro.ntga.operators": (
            "AggJoinSpec",
            "AlphaCondition",
            "JoinSide",
            "agg_join",
            "alpha_join",
            "any_alpha_satisfied",
            "n_split",
            "optional_group_filter",
            "rng",
        ),
        "repro.ntga.overlap": (
            "StarCorrespondence",
            "find_correspondence",
            "patterns_overlap",
            "role_equivalent",
            "stars_overlap",
        ),
        "repro.ntga.planner": ("NTGAPlan", "plan_rapid_analytics", "plan_rapid_plus"),
        "repro.ntga.triplegroup": (
            "JoinedTripleGroup",
            "TripleGroup",
            "equivalence_class",
            "group_by_subject",
            "joined_solutions",
            "star_solutions",
        ),
    },
)
