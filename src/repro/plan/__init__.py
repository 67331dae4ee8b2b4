"""Cost-based adaptive planning (the ``--planner`` knob).

The paper's §6 composite rewrite is applied *rule-based* by
:func:`repro.ntga.planner.plan_rapid_analytics`: it fires whenever the
grouping subqueries overlap, whether or not the rewrite actually wins.
This package adds the statistics-fed alternative: a cardinality
estimator over :class:`repro.rdf.stats.GraphStats`
(:mod:`repro.plan.cardinality`), a plan enumerator that compiles the
rule-based candidates — composite rewrite, sequential evaluation,
final-join order variants — with the planners that run them and prices
each compiled job list end-to-end with
:meth:`repro.mapreduce.cost.CostModel.job_cost`
(:mod:`repro.plan.enumerator`), and a three-mode knob mirroring the
factorized-representation knob of PR 6:

* ``"rule"`` (default) — the original heuristic: composite whenever the
  patterns overlap.  Byte-identical to the pre-planner behavior, which
  is what the goldens pin.
* ``"cost"`` — always take the cheapest priced plan.
* ``"auto"`` — deviate from the rule plan only when the priced win
  clears a safety margin (see
  :data:`repro.plan.enumerator.AUTO_MARGIN`).

Like the representation knob, the mode is a row of the knob table in
:mod:`repro.ambient` (DESIGN.md §7.5) with the one precedence rule: an
explicit :attr:`repro.core.results.EngineConfig.planner` (the serve
layer) wins over the ambient context installed by :func:`active_planner`
(the CLI), which wins over :data:`DEFAULT_PLANNER`.
"""

from __future__ import annotations

from repro import ambient
from repro.ambient import PLANNER
from repro.plan.cardinality import (
    FILTER_SELECTIVITY,
    CardinalityEstimator,
    StarEstimate,
)
from repro.plan.enumerator import (
    AUTO_MARGIN,
    CandidatePlan,
    JobEstimate,
    PlanChoice,
    choose,
    enumerate_candidates,
    plan_adaptive,
)

__all__ = [
    "PLANNERS",
    "DEFAULT_PLANNER",
    "validate_planner",
    "active_planner",
    "resolve_planner",
    "FILTER_SELECTIVITY",
    "CardinalityEstimator",
    "StarEstimate",
    "AUTO_MARGIN",
    "CandidatePlan",
    "JobEstimate",
    "PlanChoice",
    "choose",
    "enumerate_candidates",
    "plan_adaptive",
]

#: The knob is a row of the table: the modes an engine accepts, the
#: default (the original rule-based behavior, which the goldens pin),
#: ``validate`` (an exact mode name or a one-line :class:`ReproError`)
#: and ``resolve`` (explicit config > ambient context > default).
PLANNERS = PLANNER.choices
DEFAULT_PLANNER = PLANNER.default
validate_planner = PLANNER.validate
resolve_planner = PLANNER.resolve


def active_planner(mode: str):
    """Install *mode* as the ambient planner for the duration."""
    return ambient.installed(planner=validate_planner(mode))
