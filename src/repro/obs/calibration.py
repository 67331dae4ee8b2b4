"""Planner calibration: q-error telemetry for estimate-vs-actual drift.

The PR 7 cost planner is only trustworthy while its estimates track
reality; ``repro explain --run`` shows one execution's
estimated-vs-actual table, but fleet-level monitoring needs the error
*distribution* across served traffic.  :class:`CalibrationMonitor`
aggregates exactly the comparison :mod:`repro.core.explain` renders —
each executed :class:`~repro.mapreduce.runner.JobStats` against the
:class:`~repro.plan.enumerator.JobEstimate` its job was priced with and
carried through the run — into per-(query, engine) **q-error**
statistics:

    ``q(est, act) = max(est, floor) / max(act, floor)`` or its inverse,
    whichever is >= 1

— the standard symmetric multiplicative error (Moerkotte et al.), with
a floor of 1 row for cardinalities (0-row cycles are exactly right, not
infinitely wrong) and 1ms for costs.  A perfectly calibrated estimator
scores 1.0 on every cycle.

When a :class:`~repro.obs.metrics.MetricsRegistry` is active, every
observation also lands in the ``planner_cardinality_q_error`` /
``planner_cost_q_error`` histograms (labels: query, engine), so the
distribution survives into metrics snapshots.  The monitor's own
:meth:`report` adds what histograms cannot carry: exact per-key
max/mean and a **drift verdict** — ``"ok"`` or ``"drifting"`` per
(query, engine), against configurable q-error thresholds.

Duck-typed on purpose: estimates need ``.output_rows``/``.cost`` and
actuals ``.output_records``/``.cost_seconds``, so this module imports
neither the planner nor the runner.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs import metrics as obs_metrics

__all__ = [
    "CARDINALITY_DRIFT_THRESHOLD",
    "COST_DRIFT_THRESHOLD",
    "CalibrationMonitor",
    "q_error",
]

#: Max cardinality q-error tolerated per (query, engine) before the
#: verdict flips to ``"drifting"``.  4x in either direction is the
#: customary "an estimator this wrong will flip plan choices" line.
CARDINALITY_DRIFT_THRESHOLD = 4.0

#: Max cost q-error tolerated.  Tighter than cardinality: cost feeds
#: straight into plan pricing, and the enumerator prices the very jobs
#: the runner charges, so big ratios mean a real model gap.
COST_DRIFT_THRESHOLD = 2.0

_ROW_FLOOR = 1.0
_COST_FLOOR = 0.001  # 1ms simulated


def q_error(estimated: float, actual: float, floor: float = _ROW_FLOOR) -> float:
    """Symmetric multiplicative error, >= 1.0, floored on both sides."""
    est = max(float(estimated), floor)
    act = max(float(actual), floor)
    return est / act if est >= act else act / est


class _Series:
    """Running q-error stats for one (query, engine, dimension)."""

    __slots__ = ("count", "max", "_sum_micro")

    def __init__(self) -> None:
        self.count = 0
        self.max = 1.0
        self._sum_micro = 0  # fixed-point, order-independent sum

    def add(self, value: float) -> None:
        self.count += 1
        self._sum_micro += round(value * 1_000_000)
        if value > self.max:
            self.max = value

    def summary(self) -> dict[str, Any]:
        mean = self._sum_micro / (self.count * 1_000_000) if self.count else 0.0
        return {
            "count": self.count,
            "mean": round(mean, 6),
            "max": round(self.max, 6),
        }


class CalibrationMonitor:
    """Accumulates estimate-vs-actual q-errors and renders drift verdicts."""

    def __init__(
        self,
        cardinality_threshold: float = CARDINALITY_DRIFT_THRESHOLD,
        cost_threshold: float = COST_DRIFT_THRESHOLD,
    ) -> None:
        self.cardinality_threshold = cardinality_threshold
        self.cost_threshold = cost_threshold
        self._cardinality: dict[tuple[str, str], _Series] = {}
        self._cost: dict[tuple[str, str], _Series] = {}

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        query: str,
        engine: str,
        cycles: Iterable[tuple[Any, list[Any]]],
    ) -> int:
        """Fold one execution's per-cycle comparison into the monitor.

        *cycles* are ``(estimate, the executed parts that carried it)``
        pairs (:meth:`WorkflowStats.priced_cycles`).  A cycle of more
        than one part is skipped, on purpose: a sharded run executes a
        priced job as per-shard partial / assemble parts whose costs
        include an exchange the estimate has no term for (ROADMAP 3(b)),
        and comparing them would read as estimator drift.  Returns the
        number of cycles compared.
        """
        registry = obs_metrics.active_registry()
        compared = 0
        for estimate, parts in cycles:
            if len(parts) != 1:
                continue
            actual = parts[0]
            compared += 1
            card_q = q_error(estimate.output_rows, actual.output_records, _ROW_FLOOR)
            cost_q = q_error(estimate.cost, actual.cost_seconds, _COST_FLOOR)
            key = (query, engine)
            series = self._cardinality.get(key)
            if series is None:
                series = self._cardinality[key] = _Series()
            series.add(card_q)
            series = self._cost.get(key)
            if series is None:
                series = self._cost[key] = _Series()
            series.add(cost_q)
            if registry is not None:
                labels = {"query": query, "engine": engine}
                registry.histogram(
                    "planner_cardinality_q_error",
                    "q-error of estimated vs actual output rows per MR cycle",
                    ("query", "engine"),
                ).labels(**labels).observe(card_q)
                registry.histogram(
                    "planner_cost_q_error",
                    "q-error of priced vs actual cycle cost",
                    ("query", "engine"),
                ).labels(**labels).observe(cost_q)
        return compared

    def record_report(self, query: str, report: Any) -> int:
        """Convenience: record from an executed
        :class:`~repro.core.results.ExecutionReport` (0 cycles when
        nothing it ran was priced — rule-mode and Hive runs have nothing
        to compare).
        """
        if report.stats is None:
            return 0
        return self.record(query, report.engine, report.stats.priced_cycles())

    # -- reporting ---------------------------------------------------------------

    @property
    def observations(self) -> int:
        return sum(series.count for series in self._cardinality.values())

    def report(self) -> dict[str, Any]:
        """Per-(query, engine) q-error summaries with drift verdicts,
        deterministically ordered, plus fleet-level rollups."""
        entries = []
        drifting = 0
        for key in sorted(set(self._cardinality) | set(self._cost)):
            query, engine = key
            cardinality = self._cardinality.get(key, _Series()).summary()
            cost = self._cost.get(key, _Series()).summary()
            drift = (
                cardinality["max"] > self.cardinality_threshold
                or cost["max"] > self.cost_threshold
            )
            drifting += drift
            entries.append(
                {
                    "query": query,
                    "engine": engine,
                    "cardinality_q_error": cardinality,
                    "cost_q_error": cost,
                    "verdict": "drifting" if drift else "ok",
                }
            )
        return {
            "thresholds": {
                "cardinality_q_error_max": self.cardinality_threshold,
                "cost_q_error_max": self.cost_threshold,
            },
            "observations": self.observations,
            "queries": entries,
            "drifting": drifting,
            "verdict": "drifting" if drifting else "ok",
        }
