"""Serve-layer resilience: retries, circuit breaking, degradation.

The MapReduce setting assumes failures are the norm; PR 2/PR 4 made the
*workflow* layer survive them (seeded fault injection, checkpointed
recovery), but until this module the serve layer above it was brittle:
one :class:`~repro.errors.ReproError` inside a merged MQO unit failed
every member request, nothing was retried, and deadlines were enforced
only after execution had been paid for.  This module supplies the
standard resilience trio, all on the simulated clock so every decision
stays a pure function of (graph, config, request sequence):

* :class:`RetryPolicy` — deterministic exponential backoff with seeded
  jitter (keyed BLAKE2 hash mapped to a unit float, the
  :class:`~repro.mapreduce.faults.FaultPlan` recipe), budgeted against
  the request deadline so the service never schedules a retry that
  cannot land in time, and priced per attempt via
  :meth:`~repro.mapreduce.cost.CostModel.resubmit_cost`.  Re-executions
  derive a fresh fault seed per attempt — on a real cluster a
  resubmitted workflow gets fresh task fates, so replaying the
  *identical* injected crash would make retries structurally useless.
* :class:`CircuitBreaker` — a per-engine closed/open/half-open machine
  driven by a sliding failure window on simulated time: trip after
  ``threshold`` failures inside ``window`` seconds, fast-fail (or
  degrade) while open, probe with a bounded budget after ``cooldown``.
* :class:`DegradationPolicy` — explicit tiers of partial service:
  serve *stale* answers from the
  :class:`~repro.serve.cache.StaleResultStore` (possibly an older graph
  version, marked ``status="degraded"`` / ``source="stale-cache"``),
  bypass MQO batching while the breaker is half-open (probe with the
  smallest blast radius available), and deterministically shed the
  lowest-priority arrivals when queue depth crosses a threshold.

The report harness at the bottom runs one workload A/B — identical
fault-injected traffic with resilience off and on — and emits a
``repro-serve-resilience/v1`` report whose committed golden pins the
headline claim: availability strictly improves with resilience enabled,
while every *successful* answer stays bit-identical to the fault-free
baseline (degraded answers are allowed to be stale, never wrong).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro import obs
from repro.ambient import Field, parse_spec
from repro.errors import ResilienceError
from repro.mapreduce.faults import FaultPlan
from repro.obs import metrics as obs_metrics
from repro.report import ReportKind

#: Schema tag for the resilience A/B report.
RESILIENCE_SCHEMA = "repro-serve-resilience/v1"

_UNIT_DENOMINATOR = float(2**64)

#: ``--resilience`` keys (DESIGN.md §7.5 has the grammar), under the
#: flat names :meth:`ResilienceConfig.from_dict` reads.
_SPEC_FIELDS = {
    "retries": Field(int),
    "backoff": Field(float, "base_backoff"),
    "factor": Field(float, "backoff_factor"),
    "jitter": Field(float),
    "seed": Field(int),
    "threshold": Field(int),
    "window": Field(float),
    "cooldown": Field(float),
    "probes": Field(int),
    "stale": Field(bool),
    "bypass": Field(bool, "bypass_batching"),
    "shed": Field(lambda raw: max(int(raw), 0) or None, "shed_threshold"),
}


def _unit_float(*key: Any) -> float:
    """A deterministic unit float keyed on *key* — the FaultPlan recipe
    (keyed BLAKE2, no global random state, no wall clock)."""
    digest = hashlib.blake2b(
        "\x1f".join(str(part) for part in key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _UNIT_DENOMINATOR


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for failed serve units.

    Retry ``k`` (1-based) of a query waits
    ``base_backoff * backoff_factor**(k-1) * (1 + jitter * u)`` simulated
    seconds after the failure, where ``u`` is a unit float keyed on
    ``(seed, fingerprint digest, k)`` — the schedule is a pure function
    of the policy and the query, identical on every run and every
    ``PYTHONHASHSEED``.  Validation enforces
    ``backoff_factor >= 1 + jitter``, which makes every schedule
    non-decreasing in the attempt number *regardless* of how the jitter
    draws land (the maximum of step ``k`` is the minimum of step
    ``k+1``); the hypothesis property tests pin this.
    """

    #: Re-execution budget per query beyond the first attempt.
    retries: int = 2
    #: First backoff step, simulated seconds.
    base_backoff: float = 0.5
    #: Exponential growth per retry.
    backoff_factor: float = 2.0
    #: Jitter amplitude as a fraction of the step (0 = none).
    jitter: float = 0.25
    #: Seed for the jitter hash (independent of any FaultPlan seed).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ResilienceError(f"retries must be >= 0: {self.retries!r}")
        if not self.base_backoff > 0.0:
            raise ResilienceError(
                f"base_backoff must be > 0: {self.base_backoff!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ResilienceError(f"jitter must be in [0, 1): {self.jitter!r}")
        if self.backoff_factor < 1.0 + self.jitter:
            raise ResilienceError(
                f"backoff_factor must be >= 1 + jitter "
                f"({1.0 + self.jitter:g}): {self.backoff_factor!r}"
            )

    def backoff(self, digest: str, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based) of *digest*."""
        if retry_index < 1:
            raise ResilienceError(f"retry_index must be >= 1: {retry_index!r}")
        step = self.base_backoff
        for _ in range(retry_index - 1):
            step *= self.backoff_factor  # repeated multiply: no libm pow
        jitter = self.jitter * _unit_float("retry", self.seed, digest, retry_index)
        return round(step * (1.0 + jitter), 6)

    def schedule(self, digest: str) -> tuple[float, ...]:
        """The full backoff schedule for one query."""
        return tuple(self.backoff(digest, k) for k in range(1, self.retries + 1))

    def fault_seed(self, base_seed: int, digest: str, attempt: int) -> int:
        """A fresh FaultPlan seed for re-execution *attempt* (>= 2).

        Task fates under a FaultPlan are pure functions of (seed, job
        identity, volumes, attempt budget), so re-running the identical
        workflow fails identically; deriving a per-attempt seed models
        the fresh task fates a resubmission gets on a real cluster
        while keeping the whole retry cascade deterministic.
        """
        raw = hashlib.blake2b(
            f"retry-fates\x1f{base_seed}\x1f{digest}\x1f{attempt}".encode("utf-8"),
            digest_size=8,
        ).digest()
        return int.from_bytes(raw, "big") >> 1  # keep it a positive int


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker knobs (times in simulated seconds).

    ``threshold=0`` disables the breaker entirely (it reports closed
    forever) — used by the monotonicity property tests, where tripping
    would make "more retries" serve *fewer* requests by design.
    """

    #: Failures inside the sliding window that trip the breaker.
    threshold: int = 4
    #: Sliding failure-window length.
    window: float = 8.0
    #: How long the breaker stays open before probing.
    cooldown: float = 30.0
    #: Executions allowed per half-open episode.
    probes: int = 1

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ResilienceError(f"threshold must be >= 0: {self.threshold!r}")
        if not self.window > 0.0:
            raise ResilienceError(f"window must be > 0: {self.window!r}")
        if not self.cooldown > 0.0:
            raise ResilienceError(f"cooldown must be > 0: {self.cooldown!r}")
        if self.probes < 1:
            raise ResilienceError(f"probes must be >= 1: {self.probes!r}")


class CircuitBreaker:
    """Closed/open/half-open state machine on the simulated clock.

    The service feeds it execution outcomes stamped with simulated
    times; ``allow`` gates dispatch.  Failures inside
    :attr:`BreakerPolicy.window` seconds of each other accumulate;
    reaching :attr:`BreakerPolicy.threshold` trips the breaker open.
    After :attr:`BreakerPolicy.cooldown` it goes half-open and admits up
    to :attr:`BreakerPolicy.probes` executions: one success closes it
    (the window is forgiven), one failure re-trips it.  Time only moves
    forward — the machine keeps a high-water clock, so out-of-order
    stamps from one window cannot rewind a transition.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, policy: BreakerPolicy, engine: str = ""):
        self.policy = policy
        self.engine = engine
        self.trips = 0
        self.half_opens = 0
        self.closes = 0
        self._state = self.CLOSED
        self._failures: list[float] = []
        self._opened_at = 0.0
        self._probes_left = 0
        self._now = 0.0

    def _event(self, kind: str) -> None:
        obs.event(
            f"breaker-{kind}", {"engine": self.engine, "at": round(self._now, 6)}
        )
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(
                "serve_breaker_events_total",
                "circuit-breaker transitions and fast-fails",
                ("engine", "event"),
            ).labels(engine=self.engine, event=kind).inc()

    def state(self, now: float) -> str:
        """Current state at simulated time *now* (advances cooldown)."""
        self._now = max(self._now, now)
        if (
            self._state == self.OPEN
            and self._now >= self._opened_at + self.policy.cooldown
        ):
            self._state = self.HALF_OPEN
            self._probes_left = self.policy.probes
            self.half_opens += 1
            self._event("half-open")
        return self._state

    def allow(self, now: float) -> bool:
        """May an execution start at *now*?  Consumes a probe slot when
        half-open."""
        state = self.state(now)
        if state == self.CLOSED:
            return True
        if state == self.OPEN:
            return False
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def record_success(self, now: float) -> None:
        self._now = max(self._now, now)
        if self._state == self.HALF_OPEN:
            self._state = self.CLOSED
            self._failures.clear()
            self.closes += 1
            self._event("close")

    def record_failure(self, now: float) -> None:
        if self.policy.threshold == 0:  # disabled: never trips
            return
        self._now = max(self._now, now)
        if self._state == self.HALF_OPEN:
            self._trip()
            return
        if self._state == self.OPEN:
            return
        horizon = self._now - self.policy.window
        self._failures = [t for t in self._failures if t > horizon]
        self._failures.append(self._now)
        if len(self._failures) >= self.policy.threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._now
        self._failures.clear()
        self.trips += 1
        self._event("trip")


@dataclass(frozen=True)
class DegradationPolicy:
    """What partial service is acceptable when full service is not.

    Tiers, in the order the service applies them:

    1. **stale** — a query that exhausted its retry budget (or hit an
       open breaker) is answered from the last-known-good store,
       marked ``status="degraded"`` / ``source="stale-cache"`` with the
       graph version it was computed against, instead of failing.
    2. **bypass_batching** — while the breaker is half-open, MQO
       merging is suspended so each probe risks one query, not a whole
       composite's worth of members.
    3. **shed_threshold** — when admitted-plus-in-flight depth at a
       window close crosses this bound, the lowest-priority arrivals
       are shed deterministically (``status="shed"``) before any
       planning or cluster cost is spent on them.  ``None`` disables.
    """

    stale: bool = True
    bypass_batching: bool = True
    shed_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.shed_threshold is not None and self.shed_threshold < 1:
            raise ResilienceError(
                f"shed_threshold must be >= 1: {self.shed_threshold!r}"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """The three policies wired into a :class:`QueryService`."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    degradation: DegradationPolicy = field(default_factory=DegradationPolicy)

    @classmethod
    def from_spec(cls, text: str) -> "ResilienceConfig":
        """Parse a ``--resilience`` spec: comma-separated ``key=value``
        with keys ``retries``, ``backoff``, ``factor``, ``jitter``,
        ``seed``, ``threshold``, ``window``, ``cooldown``, ``probes``,
        ``stale`` (on/off), ``bypass`` (on/off), ``shed`` (0 = off).
        The empty spec (or ``default``) keeps every default.
        """
        if text.strip().lower() == "default":
            return cls()
        return parse_spec(
            text,
            "resilience",
            ResilienceError,
            _SPEC_FIELDS,
            lambda **given: cls.from_dict(given),
        )

    def as_dict(self) -> dict[str, Any]:
        """The three policies' fields, flat (their names do not collide)."""
        flat: dict[str, Any] = {}
        for policy in (self.retry, self.breaker, self.degradation):
            flat.update(asdict(policy))
        return flat

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResilienceConfig":
        """Rebuild from the flat form; an absent key keeps its default."""
        policies = []
        for policy in (RetryPolicy, BreakerPolicy, DegradationPolicy):
            names = [f.name for f in fields(policy) if f.name in data]
            policies.append(policy(**{name: data[name] for name in names}))
        return cls(*policies)


# -- the fault-injected A/B report --------------------------------------------


def prioritized_requests(spec: Any, seed: int) -> list:
    """The workload's arrival sequence with deterministic priorities.

    Priorities come from a *separate* ``random.Random`` stream keyed on
    the seed, applied after the arrival sequence is drawn — the
    workload's own rng stream (and therefore every committed serve
    golden) is untouched.
    """
    from repro.serve.workload import workload_requests

    requests = workload_requests(spec, seed)
    rng = random.Random(700_001 + seed)
    return [replace(request, priority=rng.randrange(3)) for request in requests]


def serve_resilience_report(
    spec: Any,
    fault_plan: FaultPlan,
    resilience: ResilienceConfig | None = None,
    slo: Any = None,
    graph: Any = None,
) -> dict[str, Any]:
    """Run identical fault-injected traffic with resilience off and on.

    Both arms serve the same prioritized arrival sequences against the
    same fault-injected engine config; the *only* difference is
    ``ServiceConfig.resilience``.  The fault-free solo baseline supplies
    the correctness oracle: every ``ok`` answer (either arm) and every
    ``degraded`` answer must be bit-identical to it — resilience is
    allowed to convert failures into answers, never to change answers.
    Availability is ``(ok + degraded) / requests``; the headline verdict
    requires the pooled availability with resilience on to be *strictly*
    above off.  The SLO verdict (error-budget burn included) is computed
    over the resilient arm's answered latencies.
    """
    from repro.serve.service import DEGRADED, OK, QueryService
    from repro.serve.slo import evaluate_slo
    from repro.serve.workload import (
        WORKLOAD_MIXES,
        _latency_summary,
        _tally_seed,
        default_slo,
        solo_baseline,
    )

    resilience = resilience or ResilienceConfig()
    dataset, preset, qids, _ = WORKLOAD_MIXES[spec.mix]
    if graph is None:
        from repro.datasets import generate

        graph = generate(dataset, preset)
    engine_config = spec.engine_config()
    slo = slo or default_slo(spec.mix)

    baseline = solo_baseline(spec, graph, engine_config)

    faulty_config = replace(engine_config, fault_plan=fault_plan)
    runs: list[dict[str, Any]] = []
    available = {"off": 0, "on": 0}
    total = {"off": 0, "on": 0}
    ok_mismatches: list[int] = []
    degraded_mismatches: list[int] = []
    pooled_on_latencies: list[float] = []
    totals_on = {
        "retries": 0,
        "retry_successes": 0,
        "breaker_trips": 0,
        "breaker_fast_fails": 0,
        "degraded_stale": 0,
        "shed_requests": 0,
        "isolated_groups": 0,
    }
    for seed in range(1, spec.seeds + 1):
        requests = prioritized_requests(spec, seed)
        entry: dict[str, Any] = {"seed": seed}
        for arm, arm_resilience in (("off", None), ("on", resilience)):
            service = QueryService(
                graph,
                replace(spec.service_config(faulty_config), resilience=arm_resilience),
            )
            responses = service.serve(requests)
            tally = _tally_seed(responses, baseline, answered=(OK, DEGRADED))
            available[arm] += len(tally.latencies)
            ok_mismatches += tally.mismatches.get(OK, [])
            degraded_mismatches += tally.mismatches.get(DEGRADED, [])
            total[arm] += len(responses)
            counters = service.counter_snapshot()
            if arm == "on":
                pooled_on_latencies.extend(tally.latencies)
                for key in totals_on:
                    totals_on[key] += int(counters.get(key, 0))
            entry[arm] = {
                "requests": len(responses),
                "statuses": tally.statuses,
                "sources": tally.sources,
                "availability": round(len(tally.latencies) / len(responses), 6),
                "latency": _latency_summary(tally.latencies),
                "served_cost_seconds": round(service.executed_cost_seconds, 6),
                "counters": dict(sorted(counters.items())),
            }
        runs.append(entry)

    # A spec has at least one seed and one request: no arm is empty.
    availability = {arm: round(available[arm] / total[arm], 6) for arm in ("off", "on")}
    slo_on = evaluate_slo(slo, pooled_on_latencies)
    verdicts = {
        # The headline: resilience strictly buys availability under the
        # pinned fault plan.
        "availability_strictly_improved": availability["on"] > availability["off"],
        # The guard rail: it never buys it by changing answers.
        "ok_rows_match_fault_free": not ok_mismatches,
        "degraded_rows_match_fault_free": not degraded_mismatches,
        "slo_error_budget_pass": slo_on["objectives"]["budget"],
        "slo_pass": slo_on["pass"],
    }
    return {
        "schema": RESILIENCE_SCHEMA,
        "mix": spec.mix,
        "dataset": dataset,
        "preset": preset,
        "queries": list(qids),
        "workload": asdict(spec),
        "faults": asdict(fault_plan),
        "resilience": resilience.as_dict(),
        "baseline": baseline,
        "runs": runs,
        "slo": slo_on,
        "summary": {
            "requests_per_arm": total["on"],
            "availability_off": availability["off"],
            "availability_on": availability["on"],
            "availability_gain": round(availability["on"] - availability["off"], 6),
            **{key: value for key, value in sorted(totals_on.items())},
        },
        "verdicts": verdicts,
        "mismatched_ok_requests": ok_mismatches,
        "mismatched_degraded_requests": degraded_mismatches,
    }


def render_resilience_report(report: dict[str, Any]) -> str:
    """Terminal view: per-seed availability A/B plus the verdict lines."""
    workload = report["workload"]
    faults = report["faults"]
    lines = [
        f"{report['mix']} resilience A/B "
        f"(seeds=1..{workload['seeds']}, requests={workload['requests']}, "
        f"engine={workload['engine']}, faults seed={faults['seed']} "
        f"rate={faults['task_failure_rate']:g} "
        f"attempts={faults['max_attempts']})",
        f"{'seed':>4s} {'avail off':>9s} {'avail on':>9s} {'retries':>8s} "
        f"{'degraded':>9s} {'shed':>5s} {'trips':>6s} {'fastfail':>9s}",
    ]
    for run in report["runs"]:
        on = run["on"]
        counters = on["counters"]
        lines.append(
            f"{run['seed']:4d} "
            f"{run['off']['availability'] * 100:8.1f}% "
            f"{on['availability'] * 100:8.1f}% "
            f"{counters.get('retries', 0):8d} "
            f"{counters.get('degraded_stale', 0):9d} "
            f"{counters.get('shed_requests', 0):5d} "
            f"{counters.get('breaker_trips', 0):6d} "
            f"{counters.get('breaker_fast_fails', 0):9d}"
        )
    summary = report["summary"]
    verdicts = report["verdicts"]
    lines.append(
        f"pooled availability: {summary['availability_off'] * 100:.1f}% off -> "
        f"{summary['availability_on'] * 100:.1f}% on "
        f"(gain {summary['availability_gain'] * 100:+.1f}pp); "
        f"retries {summary['retries']} "
        f"({summary['retry_successes']} recovered), "
        f"breaker trips {summary['breaker_trips']}, "
        f"stale serves {summary['degraded_stale']}, "
        f"shed {summary['shed_requests']}"
    )
    lines.append(
        "availability strictly improved: "
        f"{verdicts['availability_strictly_improved']}; "
        f"ok answers match fault-free: {verdicts['ok_rows_match_fault_free']}; "
        f"degraded answers match fault-free: "
        f"{verdicts['degraded_rows_match_fault_free']}"
    )
    slo = report["slo"]
    lines.append(
        f"SLO on resilient arm: {'PASS' if slo['pass'] else 'FAIL'} "
        f"(error-budget burn {slo['budget_burn'] * 100:.1f}% over "
        f"{slo['count']} answered, budget "
        f"{slo['targets']['budget'] * 100:g}%)"
    )
    return "\n".join(lines)


def _rerun(golden: dict[str, Any]) -> dict[str, Any]:
    from repro.serve.slo import SLOSpec
    from repro.serve.workload import WorkloadSpec

    return serve_resilience_report(
        WorkloadSpec(**golden["workload"]),
        FaultPlan(**golden["faults"]),
        ResilienceConfig.from_dict(golden["resilience"]),
        slo=SLOSpec(**golden["slo"]["targets"]),
    )


def _violations(report: dict[str, Any]) -> list[str]:
    verdicts = report["verdicts"]
    if verdicts["ok_rows_match_fault_free"] and verdicts["degraded_rows_match_fault_free"]:
        return []
    return [
        "served answers differ from the fault-free baseline: "
        f"ok={report['mismatched_ok_requests']} "
        f"degraded={report['mismatched_degraded_requests']}"
    ]


#: A diff against a committed report catches any retry/breaker/degradation
#: change that moves an availability figure, a counter, or a verdict.
KIND = ReportKind(
    schema=RESILIENCE_SCHEMA,
    label="serve golden",
    head=(
        "schema", "mix", "dataset", "preset", "queries", "workload",
        "faults", "resilience", "baseline",
    ),
    key=("seed",),
    tail=("slo", "summary", "verdicts"),
    rerun=_rerun,
    render=render_resilience_report,
    violations=_violations,
)
