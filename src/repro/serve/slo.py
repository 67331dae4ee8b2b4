"""SLO tracking for served workloads — on the simulated clock.

An :class:`SLOSpec` names latency targets (p50/p95/p99, simulated
seconds) plus an **error budget**: the fraction of completed requests
allowed to exceed the strictest (p99) target before the SLO as a whole
fails.  :func:`evaluate_slo` turns a latency sample into the verdict
embedded in ``repro-serve-workload/v2`` reports and ``repro-metrics/v1``
snapshots: targets, achieved nearest-rank percentiles, budget burn, and
a per-objective plus overall pass/fail.

Because everything runs on the simulated clock, an SLO verdict is a
pure function of (graph, config, request sequence) — the same workload
either passes or fails on every machine, every run.  That is what makes
pinning ``slo_pass: true`` in a CI golden meaningful.

The ``--slo`` spec shares ``--workload``'s grammar (DESIGN.md §7.5):
``p50=1.0,p95=90,p99=120[,budget=0.05]`` — any subset of the three
percentiles, each a positive simulated-seconds bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.ambient import Field, parse_spec
from repro.errors import ServeError

__all__ = ["DEFAULT_SLOS", "SLOSpec", "evaluate_slo"]

#: ``--slo`` keys (DESIGN.md §7.5 has the grammar).
_SPEC_FIELDS = {key: Field(float) for key in ("p50", "p95", "p99", "budget")}


@dataclass(frozen=True)
class SLOSpec:
    """Latency objectives on the simulated clock (None = not tracked)."""

    p50: float | None = None
    p95: float | None = None
    p99: float | None = None
    #: Fraction of completed requests allowed over the p99 target (or
    #: the strictest configured target when p99 is not set).
    budget: float = 0.05

    def __post_init__(self) -> None:
        for name in ("p50", "p95", "p99"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ServeError(f"slo {name} target must be > 0: {value!r}")
        if not 0.0 <= self.budget < 1.0:
            raise ServeError(f"slo budget must be in [0, 1): {self.budget!r}")
        if self.p50 is None and self.p95 is None and self.p99 is None:
            raise ServeError("slo spec needs at least one of p50/p95/p99")

    @classmethod
    def from_spec(cls, text: str) -> "SLOSpec":
        """Parse ``p50=S[,p95=S][,p99=S][,budget=F]``."""
        return parse_spec(text, "slo", ServeError, _SPEC_FIELDS, cls)

    @property
    def strictest_bound(self) -> float:
        """The tail bound that burns error budget (p99 first); validation
        guarantees there is one."""
        return next(v for v in (self.p99, self.p95, self.p50) if v is not None)


#: Per-mix default objectives, calibrated against the committed serve
#: goldens (tiny presets): cache-hit latencies are sub-second, a cold
#: chem batch tops out under a simulated minute.  ``None`` falls back
#: to ``"default"``.
DEFAULT_SLOS: dict[str, SLOSpec] = {
    "chem-overlap": SLOSpec(p50=1.0, p95=90.0, p99=120.0, budget=0.05),
    "bsbm-star": SLOSpec(p50=5.0, p95=120.0, p99=240.0, budget=0.05),
    "pubmed-mesh": SLOSpec(p50=5.0, p95=120.0, p99=240.0, budget=0.05),
    "default": SLOSpec(p50=5.0, p95=120.0, p99=240.0, budget=0.05),
}


def _percentile(sorted_values: list[float], percent: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * percent // 100))  # ceil
    return sorted_values[int(rank) - 1]


def evaluate_slo(spec: SLOSpec, latencies: list[float]) -> dict[str, Any]:
    """The SLO verdict for one latency sample (simulated seconds).

    Each configured percentile passes when the achieved nearest-rank
    value is <= its target.  Budget burn is the fraction of requests
    over :attr:`SLOSpec.strictest_bound`; the budget objective passes
    while burn <= budget.  ``pass`` requires every objective.  An empty
    sample passes vacuously (nothing completed, nothing violated).
    """
    ordered = sorted(latencies)
    achieved = {
        "p50": round(_percentile(ordered, 50), 6),
        "p95": round(_percentile(ordered, 95), 6),
        "p99": round(_percentile(ordered, 99), 6),
    }
    objectives: dict[str, bool] = {}
    for name in ("p50", "p95", "p99"):
        target = getattr(spec, name)
        if target is not None:
            objectives[name] = not ordered or achieved[name] <= target
    bound = spec.strictest_bound
    over = sum(1 for latency in ordered if latency > bound)
    burn = round(over / len(ordered), 6) if ordered else 0.0
    objectives["budget"] = burn <= spec.budget
    return {
        "targets": asdict(spec),
        "achieved": achieved,
        "count": len(ordered),
        "violations": over,
        "budget_burn": burn,
        "objectives": dict(sorted(objectives.items())),
        "pass": all(objectives.values()),
    }
