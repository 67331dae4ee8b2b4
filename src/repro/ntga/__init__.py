"""Nested TripleGroup Algebra: data model, operators, planners, engines."""

from repro.ntga.composite import (
    CanonicalSubquery,
    CompositePlan,
    CompositeStar,
    build_composite,
    build_composite_n,
    single_pattern_plan,
)
from repro.ntga.engine import NTGAEngine, rapid_analytics_engine, rapid_plus_engine
from repro.ntga.operators import (
    AggJoinSpec,
    AlphaCondition,
    JoinSide,
    agg_join,
    alpha_join,
    any_alpha_satisfied,
    n_split,
    optional_group_filter,
    rng,
)
from repro.ntga.overlap import (
    StarCorrespondence,
    find_correspondence,
    patterns_overlap,
    role_equivalent,
    stars_overlap,
)
from repro.ntga.planner import NTGAPlan, plan_rapid_analytics, plan_rapid_plus
from repro.ntga.triplegroup import (
    JoinedTripleGroup,
    TripleGroup,
    equivalence_class,
    group_by_subject,
    joined_solutions,
    star_solutions,
)

__all__ = [
    "AggJoinSpec",
    "AlphaCondition",
    "CanonicalSubquery",
    "CompositePlan",
    "CompositeStar",
    "JoinSide",
    "JoinedTripleGroup",
    "NTGAEngine",
    "NTGAPlan",
    "StarCorrespondence",
    "TripleGroup",
    "agg_join",
    "alpha_join",
    "any_alpha_satisfied",
    "build_composite",
    "build_composite_n",
    "equivalence_class",
    "find_correspondence",
    "group_by_subject",
    "joined_solutions",
    "n_split",
    "optional_group_filter",
    "patterns_overlap",
    "plan_rapid_analytics",
    "plan_rapid_plus",
    "rapid_analytics_engine",
    "rapid_plus_engine",
    "rng",
    "role_equivalent",
    "single_pattern_plan",
    "star_solutions",
    "stars_overlap",
]
