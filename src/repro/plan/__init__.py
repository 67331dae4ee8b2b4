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

Like the representation knob, the mode is a row of the knob table,
:data:`repro.ambient.PLANNER` (DESIGN.md §7.5), with the one precedence
rule: an explicit :attr:`repro.core.results.EngineConfig.planner` (the
serve layer) wins over the ambient ``planner`` slot (the CLI installs it
with :func:`repro.ambient.installed`), which wins over the knob's
default.
"""

from repro.plan.enumerator import enumerate_candidates

__all__ = ["enumerate_candidates"]
