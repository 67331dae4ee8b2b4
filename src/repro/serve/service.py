"""The concurrent analytical-query service.

:class:`QueryService` accepts many SPARQL queries against one shared
graph and exploits cross-request sharing three ways, in order:

1. **result cache** — answers keyed by (canonical fingerprint, graph
   version, engine) are returned without touching the cluster;
2. **request dedup** — identical queries arriving in the same batching
   window execute once and fan the answer out;
3. **MQO batching** — *different* queries whose graph patterns overlap
   (paper Defs 3.1/3.2) are merged into one composite workflow
   (:func:`repro.ntga.planner.plan_batch`), executed once, and n-split
   (χ) back to each requester.

Under a non-rule planner mode (``EngineConfig.planner`` of ``"cost"``
or ``"auto"``) the fingerprint-keyed plan cache also remembers the
cost-based planner's chosen candidate per (fingerprint, graph version,
engine), and solo re-executions replay it via
``EngineConfig.plan_decision`` instead of re-selecting.  Rule mode
never touches that cache, so the default goldens' counters are
unchanged.

Two clocks, one contract.  Requests carry *simulated* arrival times;
admission, batching windows, worker queueing, latencies, and deadlines
all live on the simulated clock, so every response field is a pure
function of (graph, config, request sequence) — byte-reproducible
across runs and ``PYTHONHASHSEED``.  The wall clock is only how long
the caller's thread takes to get there: units execute on it one at a
time, in queue order (``workers`` is the number of *simulated* executor
slots, nothing else), so tracers, recorders and registries see one
deterministic event order whether or not they are on.

The service works with every engine (``EngineConfig`` fault plans and
checkpointed recovery compose — a batch resubmits exactly like a solo
workflow); pattern-merge batching itself engages on the
``rapid-analytics`` engine, the only planner with a composite operator.

Every window is dispatched through one attempt queue governed by a
:class:`~repro.serve.resilience.ResilienceConfig`: deterministic
retries, a per-engine circuit breaker, and graceful degradation (stale
answers, batching bypass, load shedding) — see the "dispatch" section
below.  ``ServiceConfig.resilience=None`` is not a second path but the
null policy of that queue (:data:`_FAIL_FAST`): zero retries, a breaker
that never trips, no degradation tier.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro import obs
from repro.ambient import PLANNER
from repro.core.engines import make_engine
from repro.core.results import EngineConfig, Row
from repro.errors import OverlapError, ReproError, ServeError, SparqlError
from repro.ntga.engine import execute_batch
from repro.obs import metrics as obs_metrics
from repro.obs.calibration import CalibrationMonitor
from repro.rdf.graph import Graph
from repro.serve.cache import LRUCache, StaleResultStore
from repro.serve.fingerprint import Fingerprint, fingerprint_query
from repro.serve.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
)

#: Response status values.
OK = "ok"
REJECTED = "rejected"
FAILED = "failed"
DEADLINE = "deadline-exceeded"
#: Answered from the stale store after execution could not be (fully)
#: retried — rows may reflect an older graph version.
DEGRADED = "degraded"
#: Dropped by the load-shedding degradation tier before any planning
#: or cluster cost was spent.
SHED = "shed"


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduler knobs (all times in simulated seconds)."""

    engine: str = "rapid-analytics"
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    #: Simulated executor slots: how many units overlap on the
    #: simulated clock (real execution is always one unit at a time).
    workers: int = 4
    #: Admission cap: queued + in-flight requests at arrival time.
    max_pending: int = 64
    #: Batching window length; arrivals inside one window are scheduled
    #: together at its close.
    batch_window: float = 0.25
    plan_cache_size: int = 128
    result_cache_size: int = 256
    enable_result_cache: bool = True
    enable_batching: bool = True
    #: Default per-request deadline (None = no deadline).
    deadline: float | None = None
    #: Retry/breaker/degradation policies (None = fail fast, i.e. the
    #: null policy :data:`_FAIL_FAST`; the serve-workload goldens run
    #: with None).
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        from repro.core.engines import ENGINE_FACTORIES

        if self.engine not in ENGINE_FACTORIES:
            known = ", ".join(sorted(ENGINE_FACTORIES))
            raise ServeError(f"unknown engine {self.engine!r} (known: {known})")
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1: {self.workers!r}")
        if self.max_pending < 1:
            raise ServeError(f"max_pending must be >= 1: {self.max_pending!r}")
        if not self.batch_window > 0.0:
            raise ServeError(f"batch_window must be > 0: {self.batch_window!r}")
        if self.deadline is not None and not self.deadline > 0.0:
            raise ServeError(f"deadline must be > 0: {self.deadline!r}")


@dataclass(frozen=True)
class ServeRequest:
    """One query submission.  ``arrival`` is on the simulated clock;
    arrivals earlier than windows the service already closed are clamped
    forward (you cannot submit into the past)."""

    text: str
    arrival: float = 0.0
    label: str = ""
    deadline: float | None = None
    #: Scheduling priority for the load-shedding tier: higher survives
    #: longer when the service sheds (ties break by arrival, then id).
    priority: int = 0

    def __post_init__(self) -> None:
        if self.deadline is not None and not self.deadline > 0.0:
            raise ServeError(
                f"request deadline must be > 0: {self.deadline!r}"
            )


@dataclass
class ServeResponse:
    """The service's answer to one request."""

    request_id: int
    label: str
    status: str
    arrival: float
    fingerprint: str | None = None
    rows: list[Row] | None = None
    error: str | None = None
    started: float | None = None
    completed: float | None = None
    latency: float | None = None
    #: Where the answer came from: ``result-cache`` / ``dedup`` /
    #: ``batch`` / ``solo`` (None for rejected or failed requests).
    source: str | None = None
    plan_cached: bool = False
    #: Distinct queries merged into the unit that produced this answer.
    batch_size: int = 0
    #: Simulated cost of that unit (shared across its members).
    unit_cost: float = 0.0
    #: Executions this answer consumed (1 = no retries).
    attempts: int = 1
    #: Total simulated backoff the retry schedule inserted before the
    #: attempt that produced this answer.
    retry_backoff: float = 0.0
    #: Graph version a ``degraded`` answer was computed against (None
    #: for non-degraded responses).
    stale_version: int | None = None


class _Group:
    """All same-window requests for one distinct fingerprint."""

    __slots__ = ("fp", "requests")

    def __init__(self, fp: Fingerprint):
        self.fp = fp
        self.requests: list[tuple[int, ServeRequest]] = []


class _Unit:
    """One scheduled execution of a solo query or a merged batch in the
    dispatch queue, and what it produced.  ``attempt`` is 1-based;
    ``not_before`` is the earliest simulated start (window close, or
    failure time + backoff)."""

    __slots__ = (
        "groups",
        "attempt",
        "not_before",
        "backoff_total",
        "rows_by_group",
        "cost",
        "wall",
        "error",
        "failed_cost",
    )

    def __init__(
        self,
        groups: list[_Group],
        attempt: int,
        not_before: float,
        backoff_total: float,
    ):
        self.groups = groups
        self.attempt = attempt
        self.not_before = not_before
        self.backoff_total = backoff_total
        self.rows_by_group: list[list[Row]] | None = None
        self.cost = 0.0
        self.wall = 0.0  # real seconds spent executing (diagnostic only)
        self.error: str | None = None
        #: Simulated seconds the cluster burned before a failed attempt
        #: aborted (committed prefix + wasted work); 0.0 on success.
        self.failed_cost = 0.0


#: What ``ServiceConfig.resilience=None`` resolves to: fail fast.  The
#: same dispatch queue with every policy at its zero — no retry budget,
#: a breaker that never trips, no degradation tier.
_FAIL_FAST = ResilienceConfig(
    retry=RetryPolicy(retries=0),
    breaker=BreakerPolicy(threshold=0),
    degradation=DegradationPolicy(
        stale=False, bypass_batching=False, shed_threshold=None
    ),
)

_COUNTER_KEYS = (
    "requests",
    "admitted",
    "rejected",
    "failed",
    "deadline_exceeded",
    "deadline_exceeded_at_dispatch",
    "dedup_requests",
    "batch_windows",
    "batch_merges",
    "batch_merged_requests",
    "units_solo",
    "units_batch",
    "retries",
    "retry_successes",
    "retries_abandoned_deadline",
    "isolated_groups",
    "breaker_fast_fails",
    "batching_bypassed_windows",
    "shed_requests",
    "degraded_stale",
)


class QueryService:
    """Deterministic concurrent scheduler over one shared graph."""

    def __init__(
        self,
        graph: Graph,
        config: ServiceConfig | None = None,
        calibration: CalibrationMonitor | None = None,
    ):
        self.graph = graph
        self.config = config or ServiceConfig()
        #: Optional planner-calibration sink: solo adaptive executions
        #: feed their estimate-vs-actual comparison into it.
        self.calibration = calibration
        self.plan_cache = LRUCache(self.config.plan_cache_size)
        self.result_cache = LRUCache(self.config.result_cache_size)
        #: The policies every window is dispatched under.
        self._resilience = self.config.resilience or _FAIL_FAST
        #: Last-known-good answers for the degraded tier (fed only with
        #: the stale tier on).
        self.stale_results = StaleResultStore(self.config.result_cache_size)
        self.counters: dict[str, int] = {key: 0 for key in _COUNTER_KEYS}
        self.executed_cost_seconds = 0.0
        #: Simulated seconds charged to retries via resubmit_cost.
        self.retry_cost_seconds = 0.0
        self._breaker = CircuitBreaker(
            self._resilience.breaker, engine=self.config.engine
        )
        self._next_id = 0
        self._floor = 0.0  # close time of the last processed window
        self._worker_free = [0.0] * self.config.workers
        self._open: list[float] = []  # completion times of admitted work

    # -- public API --------------------------------------------------------------

    def serve(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        """Process a batch of submissions; responses in request order."""
        window = self.config.batch_window
        numbered: list[tuple[int, ServeRequest]] = []
        for request in requests:
            if request.arrival < 0.0:
                raise ServeError(f"arrival must be >= 0: {request.arrival!r}")
            if request.arrival < self._floor:
                request = replace(request, arrival=self._floor)
            numbered.append((self._next_id, request))
            self._next_id += 1

        by_window: dict[int, list[tuple[int, ServeRequest]]] = {}
        for rid, request in sorted(numbered, key=lambda r: (r[1].arrival, r[0])):
            by_window.setdefault(int(request.arrival // window), []).append(
                (rid, request)
            )

        responses: dict[int, ServeResponse] = {}
        for index in sorted(by_window):
            close = (index + 1) * window
            for response in self._run_window(by_window[index], close):
                responses[response.request_id] = response
            self._floor = max(self._floor, close)
        ordered = [responses[rid] for rid, _ in numbered]
        registry = obs_metrics.active_registry()
        if registry is not None:
            self._publish_metrics(registry, ordered)
        return ordered

    def query(self, text: str, label: str = "") -> ServeResponse:
        """Serve a single query arriving now (at the service's clock)."""
        return self.serve([ServeRequest(text=text, arrival=self._floor, label=label)])[0]

    def counter_snapshot(self) -> dict[str, int | float]:
        """Scheduler, resilience + cache counters, deterministically
        key-ordered (sorted, not insertion order — consumers may diff
        snapshots).  The key set does not depend on the configuration:
        under the fail-fast null policy the retry, breaker, shed,
        degraded and stale-store counters are simply zero."""
        snapshot: dict[str, int | float] = dict(self.counters)
        for name, cache in (
            ("plan_cache", self.plan_cache),
            ("result_cache", self.result_cache),
            ("stale_store", self.stale_results),
        ):
            for key, value in cache.stats().items():
                snapshot[f"{name}_{key}"] = value
        snapshot["breaker_trips"] = self._breaker.trips
        snapshot["breaker_half_opens"] = self._breaker.half_opens
        snapshot["breaker_closes"] = self._breaker.closes
        snapshot["retry_cost_seconds"] = round(self.retry_cost_seconds, 6)
        return dict(sorted(snapshot.items()))

    # -- metrics -----------------------------------------------------------------

    def _publish_metrics(
        self, registry: obs_metrics.MetricsRegistry, responses: list[ServeResponse]
    ) -> None:
        """Fold one ``serve()`` call's outcomes into the active registry."""
        statuses = registry.counter(
            "serve_requests_total", "requests by final status", ("status",)
        )
        answers = registry.counter(
            "serve_answers_total", "answers by sharing source", ("source",)
        )
        latency = registry.histogram(
            "serve_request_sim_latency_seconds",
            "request latency on the simulated clock",
            ("engine",),
        )
        wait = registry.histogram(
            "serve_queue_wait_sim_seconds",
            "arrival-to-start wait on the simulated clock",
        )
        for response in responses:
            statuses.labels(status=response.status).inc()
            if response.source is not None:
                answers.labels(source=response.source).inc()
            if response.latency is not None and response.status in (
                OK,
                DEADLINE,
                DEGRADED,
            ):
                latency.labels(engine=self.config.engine).observe(response.latency)
            if response.started is not None:
                wait.labels().observe(max(0.0, response.started - response.arrival))
        self.publish_cache_metrics(registry)

    def publish_cache_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Sync the LRU caches' counters into per-cache gauges."""
        for name, cache in (("plan", self.plan_cache), ("result", self.result_cache)):
            for key, value in cache.stats().items():
                registry.gauge(
                    f"serve_cache_{key}", f"LRU cache {key}", ("cache",)
                ).labels(cache=name).set(value)

    # -- one batching window -----------------------------------------------------

    def _run_window(
        self, arrivals: list[tuple[int, ServeRequest]], close: float
    ) -> list[ServeResponse]:
        config = self.config
        responses: list[ServeResponse] = []
        admitted: list[tuple[int, ServeRequest]] = []

        for rid, request in arrivals:
            self.counters["requests"] += 1
            self._open = [t for t in self._open if t > request.arrival]
            pending = len(self._open) + len(admitted)
            if pending >= config.max_pending:
                self.counters["rejected"] += 1
                obs.event(
                    "request-reject",
                    {"request": rid, "arrival": request.arrival, "pending": pending},
                )
                responses.append(
                    ServeResponse(
                        request_id=rid,
                        label=request.label,
                        status=REJECTED,
                        arrival=request.arrival,
                        error=f"admission control: {pending} requests pending",
                    )
                )
                continue
            self.counters["admitted"] += 1
            obs.event(
                "request-admit",
                {"request": rid, "arrival": request.arrival, "close": close},
            )
            admitted.append((rid, request))

        if admitted:
            self.counters["batch_windows"] += 1
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.histogram(
                "serve_window_admitted", "requests admitted per batching window"
            ).labels().observe(len(admitted))
        admitted, shed = self._shed_lowest_priority(admitted, close)
        responses.extend(shed)
        groups, failed = self._resolve_plans(admitted, close)
        responses.extend(failed)
        groups, cached = self._consult_result_cache(groups, close)
        responses.extend(cached)
        groups, expired = self._enforce_dispatch_deadlines(groups, close)
        responses.extend(expired)
        responses.extend(self._dispatch(groups, close))
        return responses

    def _shed_lowest_priority(
        self, admitted: list[tuple[int, ServeRequest]], close: float
    ) -> tuple[list[tuple[int, ServeRequest]], list[ServeResponse]]:
        """The load-shedding degradation tier: when admitted plus
        still-running work at the window close crosses the threshold,
        drop the overflow — lowest priority first, latest arrival first
        within a priority — before any planning or cluster cost is
        spent.  Pure function of the window's contents, so shedding is
        as deterministic as everything else."""
        threshold = self._resilience.degradation.shed_threshold
        if threshold is None or not admitted:
            return admitted, []
        in_flight = sum(1 for t in self._open if t > close)
        overflow = in_flight + len(admitted) - threshold
        if overflow <= 0:
            return admitted, []
        ranked = sorted(
            admitted, key=lambda item: (-item[1].priority, item[1].arrival, item[0])
        )
        keep_ids = {rid for rid, _ in ranked[: len(admitted) - overflow]}
        kept: list[tuple[int, ServeRequest]] = []
        responses: list[ServeResponse] = []
        for rid, request in admitted:
            if rid in keep_ids:
                kept.append((rid, request))
                continue
            self.counters["shed_requests"] += 1
            self._resilience_metric("serve_shed_total", "requests shed under load")
            obs.event(
                "request-shed",
                {
                    "request": rid,
                    "priority": request.priority,
                    "depth": in_flight + len(admitted),
                    "threshold": threshold,
                },
            )
            responses.append(
                ServeResponse(
                    request_id=rid,
                    label=request.label,
                    status=SHED,
                    arrival=request.arrival,
                    error=(
                        f"load shed: queue depth {in_flight + len(admitted)} > "
                        f"{threshold} (priority {request.priority})"
                    ),
                    completed=close,
                    latency=close - request.arrival,
                )
            )
        return kept, responses

    def _enforce_dispatch_deadlines(
        self, groups: list[_Group], close: float
    ) -> tuple[list[_Group], list[ServeResponse]]:
        """Fail requests whose queue wait already exceeds their deadline
        *before* any cluster cost is charged.  The check uses the window
        close (the earliest possible start), so it is conservative:
        requests that only blow their deadline while queued behind
        earlier units are still caught post-execution by ``_finish``."""
        kept: list[_Group] = []
        responses: list[ServeResponse] = []
        for group in groups:
            survivors: list[tuple[int, ServeRequest]] = []
            for rid, request in group.requests:
                deadline = self._deadline(request)
                wait = close - request.arrival
                if deadline is None or wait <= deadline:
                    survivors.append((rid, request))
                    continue
                self.counters["deadline_exceeded"] += 1
                self.counters["deadline_exceeded_at_dispatch"] += 1
                self._open.append(close)
                obs.event(
                    "request-deadline",
                    {
                        "request": rid,
                        "latency": wait,
                        "deadline": deadline,
                        "stage": "dispatch",
                    },
                )
                responses.append(
                    ServeResponse(
                        request_id=rid,
                        label=request.label,
                        status=DEADLINE,
                        arrival=request.arrival,
                        fingerprint=group.fp.digest,
                        error=(
                            f"deadline exceeded before dispatch: "
                            f"{wait:.6f}s queued > {deadline:.6f}s"
                        ),
                        started=close,
                        completed=close,
                        latency=wait,
                    )
                )
            if survivors:
                group.requests = survivors
                kept.append(group)
        return kept, responses

    def _deadline(self, request: ServeRequest) -> float | None:
        """The request's own deadline, else the config default."""
        if request.deadline is not None:
            return request.deadline
        return self.config.deadline

    def _resilience_metric(self, name: str, help_text: str, **labels: str) -> None:
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(name, help_text, tuple(sorted(labels))).labels(
                **labels
            ).inc()

    def _resolve_plans(
        self, admitted: list[tuple[int, ServeRequest]], close: float
    ) -> tuple[list[_Group], list[ServeResponse]]:
        """Fingerprint + decompose each admitted request (plan cache),
        collapsing same-fingerprint requests into one group."""
        groups: dict[str, _Group] = {}
        failures: list[ServeResponse] = []
        for rid, request in admitted:
            try:
                fp = self._fingerprint(request.text)
            except SparqlError as error:
                failures.append(self._fail(rid, request, close, str(error)))
                continue
            group = groups.get(fp.digest)
            if group is None:
                group = groups[fp.digest] = _Group(fp)
            else:
                self.counters["dedup_requests"] += 1
            group.requests.append((rid, request))
        return list(groups.values()), failures

    def _fingerprint(self, text: str) -> Fingerprint:
        hit = self.plan_cache.peek(text)
        if hit is not None:
            self.plan_cache.get(text)  # touch recency + hit counter
            obs.event("cache-hit", {"cache": "plan", "digest": hit.digest})
            return hit
        fp = fingerprint_query(text)
        self.plan_cache.misses += 1
        # Key by raw text (a plan-cache hit must skip the parse), but
        # share one entry between spelling variants of the same query.
        canonical_hit = self.plan_cache.peek(fp.canonical)
        if canonical_hit is not None:
            fp = canonical_hit
        else:
            self.plan_cache.put(fp.canonical, fp)
        self.plan_cache.put(text, fp)
        return fp

    def _result_key(self, digest: str) -> tuple[str, int, str]:
        return (digest, self.graph.version, self.config.engine)

    def _consult_result_cache(
        self, groups: list[_Group], close: float
    ) -> tuple[list[_Group], list[ServeResponse]]:
        if not self.config.enable_result_cache:
            return groups, []
        misses: list[_Group] = []
        responses: list[ServeResponse] = []
        for group in groups:
            rows = self.result_cache.get(self._result_key(group.fp.digest))
            if rows is None:
                misses.append(group)
                continue
            obs.event(
                "cache-hit",
                {
                    "cache": "result",
                    "digest": group.fp.digest,
                    "requests": len(group.requests),
                },
            )
            for rid, request in group.requests:
                self._open.append(close)
                responses.append(
                    self._finish(
                        rid,
                        request,
                        group,
                        rows,
                        started=close,
                        completed=close,
                        source="result-cache",
                        batch_size=0,
                        unit_cost=0.0,
                    )
                )
        return misses, responses

    # -- unit formation and execution --------------------------------------------

    def _form_units(
        self, groups: list[_Group], close: float, force_solo: bool = False
    ) -> list[_Unit]:
        """Partition the window's distinct queries into first-attempt
        units, greedily merging overlapping patterns when batching is
        enabled.  ``force_solo`` suspends merging for one window (the
        half-open breaker's minimal-blast-radius probes)."""
        if (
            force_solo
            or not self.config.enable_batching
            or self.config.engine != "rapid-analytics"
            or len(groups) < 2
        ):
            return [_Unit([group], 1, close, 0.0) for group in groups]

        from repro.ntga.composite import build_composite_n

        batches: list[list[_Group]] = []
        for group in groups:
            placed = False
            for batch in batches:
                subqueries = [
                    sq for member in batch for sq in member.fp.query.subqueries
                ]
                subqueries.extend(group.fp.query.subqueries)
                try:
                    if len(subqueries) > 1:
                        build_composite_n(subqueries)
                    placed = True
                except OverlapError:
                    continue
                batch.append(group)
                break
            if not placed:
                batches.append([group])

        units = []
        for batch in batches:
            units.append(_Unit(batch, 1, close, 0.0))
            if len(batch) > 1:
                self.counters["batch_merges"] += 1
                self.counters["batch_merged_requests"] += sum(
                    len(member.requests) for member in batch
                )
                obs.event(
                    "batch-merge",
                    {
                        "close": close,
                        "queries": [member.fp.digest for member in batch],
                        "requests": sum(len(m.requests) for m in batch),
                    },
                )
        return units

    def _plan_decision_key(self, digest: str) -> tuple[str, str, int, str]:
        return ("plan-choice", digest, self.graph.version, self.config.engine)

    def _cached_plan_decision(self, digest: str) -> tuple[bool, str | None]:
        """Whether the adaptive planner applies to solo runs here, and
        the fingerprint's cached candidate name if one is stored.

        Rule mode never touches the plan cache — its counters are pinned
        by the serve-workload goldens."""
        if self.config.engine != "rapid-analytics":
            return False, None
        if PLANNER.resolve(self.config.engine_config.planner) == "rule":
            return False, None
        decision = self.plan_cache.get(self._plan_decision_key(digest))
        if decision is not None:
            obs.event(
                "cache-hit", {"cache": "plan-choice", "digest": digest}
            )
        return True, decision

    def _attempt_engine_config(self, unit: _Unit) -> EngineConfig:
        """The engine config for one attempt: the base config, except
        that re-executions under a fault plan derive a fresh seed — a
        resubmitted workflow gets fresh task fates, not a replay of the
        exact crash that killed it (see RetryPolicy.fault_seed)."""
        base = self.config.engine_config
        if unit.attempt == 1 or base.fault_plan is None:
            return base
        seed = self._resilience.retry.fault_seed(
            base.fault_plan.seed, unit.groups[0].fp.digest, unit.attempt
        )
        return replace(base, fault_plan=replace(base.fault_plan, seed=seed))

    def _run_unit(self, unit: _Unit) -> None:
        config = self.config
        base_config = self._attempt_engine_config(unit)
        wall_start = time.perf_counter()
        try:
            if len(unit.groups) == 1:
                digest = unit.groups[0].fp.digest
                solo_config = base_config
                adaptive, decision = self._cached_plan_decision(digest)
                if decision is not None:
                    solo_config = replace(solo_config, plan_decision=decision)
                report = make_engine(config.engine).execute(
                    unit.groups[0].fp.query, self.graph, solo_config
                )
                if (
                    adaptive
                    and report.plan_choice is not None
                    and report.plan_choice.source == "priced"
                ):
                    self.plan_cache.put(
                        self._plan_decision_key(digest), report.plan_choice.chosen
                    )
                if self.calibration is not None and report.plan_choice is not None:
                    label = unit.groups[0].requests[0][1].label or digest[:12]
                    self.calibration.record_report(label, report)
                unit.rows_by_group = [report.rows]
                unit.cost = report.cost_seconds
            else:
                batch = execute_batch(
                    [group.fp.query for group in unit.groups],
                    self.graph,
                    base_config,
                )
                unit.rows_by_group = batch.rows_by_query
                unit.cost = batch.cost_seconds
        except ReproError as error:
            unit.error = f"{type(error).__name__}: {error}"
            # The cluster still burned real simulated time before the
            # abort: the committed prefix's cost plus the aborted
            # attempt's wasted seconds (attached by the runner).
            partial = getattr(error, "partial_stats", None)
            unit.failed_cost = getattr(error, "wasted_seconds", 0.0) + (
                partial.total_cost if partial is not None else 0.0
            )
        finally:
            unit.wall = time.perf_counter() - wall_start

    # -- dispatch ------------------------------------------------------------------
    #
    # The window's units run through one deterministic work queue on the
    # caller's thread: attempts are sequenced, each gated by the circuit
    # breaker at its simulated start time, failures feed the breaker's
    # sliding window, and failed units re-enter the queue per the retry
    # schedule.  A failed *batch* is split into solo re-executions
    # (blast-radius isolation) so one poisoned query cannot take down
    # its whole window.  Everything stays a pure function of (graph,
    # config, request sequence) — the queue order, worker assignment,
    # and breaker transitions are all driven by simulated times.  Under
    # the fail-fast null policy the queue degenerates to "run each unit
    # once, in order": nothing is re-enqueued, the breaker always
    # allows, and a failed unit's members fail.

    def _dispatch(self, groups: list[_Group], close: float) -> list[ServeResponse]:
        responses: list[ServeResponse] = []
        if not groups:
            return responses
        state = self._breaker.state(close)
        if state == CircuitBreaker.OPEN:
            for group in groups:
                responses.extend(self._fast_fail(group, close, 0, 0.0))
            return responses
        force_solo = (
            state == CircuitBreaker.HALF_OPEN
            and self._resilience.degradation.bypass_batching
        )
        if force_solo and len(groups) > 1:
            self.counters["batching_bypassed_windows"] += 1
            obs.event(
                "batching-bypass",
                {"close": close, "queries": [g.fp.digest for g in groups]},
            )
        registry = obs_metrics.active_registry()
        queue = deque(self._form_units(groups, close, force_solo=force_solo))
        while queue:
            unit = queue.popleft()
            worker = min(
                range(len(self._worker_free)), key=self._worker_free.__getitem__
            )
            started = max(unit.not_before, self._worker_free[worker])
            if not self._breaker.allow(started):
                for group in unit.groups:
                    responses.extend(
                        self._fast_fail(
                            group, started, unit.attempt - 1, unit.backoff_total
                        )
                    )
                continue
            self._run_unit(unit)
            resubmit = 0.0
            if unit.attempt > 1:
                # Each re-execution is a fresh workflow submission; the
                # driver overhead is priced exactly like a checkpointed
                # resubmission with nothing salvageable.
                resubmit = self.config.engine_config.cost_model.resubmit_cost(
                    committed_jobs=0, committed_bytes=0
                )
                self.retry_cost_seconds += resubmit
            if len(unit.groups) > 1:
                self.counters["units_batch"] += 1
            else:
                self.counters["units_solo"] += 1
            if registry is not None:
                registry.histogram(
                    "serve_unit_queries", "distinct queries per executed unit"
                ).labels().observe(len(unit.groups))
                unit_sim, unit_wall = registry.dual_histogram(
                    "serve_unit_cost", "executed unit cost"
                )
                unit_sim.labels().observe(unit.cost)
                unit_wall.labels().observe(unit.wall)
            # A failed unit occupies its worker too: the cluster burned
            # failed_cost simulated seconds before the abort.
            cost = (unit.cost if unit.error is None else unit.failed_cost) + resubmit
            completed = started + cost
            self._worker_free[worker] = completed
            self.executed_cost_seconds += cost
            if unit.error is None:
                self._breaker.record_success(completed)
                if unit.attempt > 1:
                    self.counters["retry_successes"] += 1
                    self._resilience_metric(
                        "serve_retries_total",
                        "serve-layer retries by outcome",
                        outcome="success",
                    )
                responses.extend(self._settle_success(unit, started, completed))
                continue
            self._breaker.record_failure(completed)
            if unit.attempt > 1:
                self._resilience_metric(
                    "serve_retries_total",
                    "serve-layer retries by outcome",
                    outcome="failed",
                )
            digests = [group.fp.digest for group in unit.groups]
            obs.event(
                "unit-failed",
                {"queries": digests, "attempt": unit.attempt, "error": unit.error},
            )
            if len(unit.groups) > 1:
                # Blast-radius isolation: the members survive the batch.
                obs.event("batch-isolation", {"queries": digests, "error": unit.error})
                self.counters["isolated_groups"] += len(unit.groups)
            for group in unit.groups:
                self._schedule_retry(group, unit, completed, queue, responses)
        return responses

    def _fast_fail(
        self, group: _Group, now: float, attempts: int, backoff_total: float
    ) -> list[ServeResponse]:
        """Turn *group* away at an open breaker (counted per member),
        then let the degradation tiers answer it if they can."""
        for _ in group.requests:
            self.counters["breaker_fast_fails"] += 1
            self._resilience_metric(
                "serve_breaker_events_total",
                "circuit-breaker transitions and fast-fails",
                engine=self.config.engine,
                event="fast-fail",
            )
        return self._degrade_group(
            group,
            now,
            f"circuit breaker open for engine {self.config.engine!r}",
            attempts,
            backoff_total,
        )

    def _deadline_limit(self, group: _Group) -> float | None:
        """Latest simulated time any member can still be answered in
        time (min over members of arrival + deadline); None when no
        member has a deadline."""
        limits = []
        for _, request in group.requests:
            deadline = self._deadline(request)
            if deadline is not None:
                limits.append(request.arrival + deadline)
        return min(limits) if limits else None

    def _schedule_retry(
        self,
        group: _Group,
        unit: _Unit,
        failed_at: float,
        queue: deque,
        responses: list[ServeResponse],
    ) -> None:
        """Re-enqueue one group of failed *unit* per the retry schedule,
        or hand it to the degradation tiers when the budget (or the
        deadline) is spent.  A retry whose backoff lands past every
        member's deadline is never scheduled — the deadline budget
        bounds the schedule."""
        retry = self._resilience.retry
        error = unit.error
        retry_index = unit.attempt  # retry k follows attempt k
        if retry_index <= retry.retries:
            backoff = retry.backoff(group.fp.digest, retry_index)
            not_before = failed_at + backoff
            limit = self._deadline_limit(group)
            if limit is None or not_before <= limit:
                self.counters["retries"] += 1
                registry = obs_metrics.active_registry()
                if registry is not None:
                    registry.histogram(
                        "serve_retry_backoff_sim_seconds",
                        "backoff inserted before serve-layer retries",
                    ).labels().observe(backoff)
                obs.event(
                    "request-retry",
                    {
                        "digest": group.fp.digest,
                        "attempt": unit.attempt + 1,
                        "backoff": round(backoff, 6),
                        "not_before": round(not_before, 6),
                    },
                )
                queue.append(
                    _Unit(
                        [group],
                        unit.attempt + 1,
                        not_before,
                        unit.backoff_total + backoff,
                    )
                )
                return
            self.counters["retries_abandoned_deadline"] += 1
            self._resilience_metric(
                "serve_retries_total",
                "serve-layer retries by outcome",
                outcome="abandoned-deadline",
            )
            error = f"{error} (retry abandoned: backoff lands past deadline)"
        responses.extend(
            self._degrade_group(
                group, failed_at, error, unit.attempt, unit.backoff_total
            )
        )

    def _degrade_group(
        self,
        group: _Group,
        now: float,
        reason: str,
        attempts: int,
        backoff_total: float,
    ) -> list[ServeResponse]:
        """The end of the line for a group that cannot be executed: the
        stale tier answers from the last-known-good store (marked
        ``degraded``, charged ``stale_serve_overhead``); without a
        stored answer the members fail."""
        stale = (
            self.stale_results.lookup(group.fp.digest, self.config.engine)
            if self._resilience.degradation.stale
            else None
        )
        if stale is not None:
            version, rows = stale
            overhead = self.config.engine_config.cost_model.stale_serve_overhead
            completed = now + overhead
            self.executed_cost_seconds += overhead
            obs.event(
                "request-degraded",
                {
                    "digest": group.fp.digest,
                    "stale_version": version,
                    "requests": len(group.requests),
                    "reason": reason,
                },
            )
            responses = []
            for rid, request in group.requests:
                self._open.append(completed)
                self.counters["degraded_stale"] += 1
                self._resilience_metric(
                    "serve_degraded_total",
                    "degraded answers by tier",
                    tier="stale-cache",
                )
                responses.append(
                    self._finish(
                        rid,
                        request,
                        group,
                        rows,
                        started=now,
                        completed=completed,
                        source="stale-cache",
                        batch_size=0,
                        unit_cost=0.0,
                        attempts=attempts,
                        retry_backoff=backoff_total,
                        stale_version=version,
                    )
                )
            return responses
        return [
            self._fail(rid, request, now, reason, group, attempts, backoff_total)
            for rid, request in group.requests
        ]

    def _fail(
        self,
        rid: int,
        request: ServeRequest,
        now: float,
        error: str,
        group: _Group | None = None,
        attempts: int = 1,
        retry_backoff: float = 0.0,
    ) -> ServeResponse:
        """One failed request, settled at *now*.  *group* is None for a
        query that never parsed: it has no fingerprint and never
        started."""
        self._open.append(now)
        self.counters["failed"] += 1
        obs.event("request-failed", {"request": rid, "error": error})
        return ServeResponse(
            request_id=rid,
            label=request.label,
            status=FAILED,
            arrival=request.arrival,
            fingerprint=None if group is None else group.fp.digest,
            error=error,
            started=None if group is None else now,
            completed=now,
            latency=now - request.arrival,
            attempts=attempts,
            retry_backoff=retry_backoff,
        )

    def _settle_success(
        self, unit: _Unit, started: float, completed: float
    ) -> list[ServeResponse]:
        """Fan one successful (possibly retried) unit out to its
        members; with the stale tier on, successful rows also refresh
        the stale store so the degraded tier always holds the
        last-known-good answer."""
        responses: list[ServeResponse] = []
        source = "batch" if len(unit.groups) > 1 else "solo"
        for group, rows in zip(unit.groups, unit.rows_by_group):
            if len(unit.groups) > 1:
                obs.event(
                    "batch-split",
                    {
                        "digest": group.fp.digest,
                        "rows": len(rows),
                        "requests": len(group.requests),
                    },
                )
            if self.config.enable_result_cache:
                self.result_cache.put(self._result_key(group.fp.digest), rows)
            if self._resilience.degradation.stale:
                self.stale_results.put(
                    group.fp.digest, self.config.engine, self.graph.version, rows
                )
            for position, (rid, request) in enumerate(group.requests):
                self._open.append(completed)
                responses.append(
                    self._finish(
                        rid,
                        request,
                        group,
                        rows,
                        started=started,
                        completed=completed,
                        source=source if position == 0 else "dedup",
                        batch_size=len(unit.groups),
                        unit_cost=unit.cost,
                        attempts=unit.attempt,
                        retry_backoff=unit.backoff_total,
                    )
                )
        return responses

    def _finish(
        self,
        rid: int,
        request: ServeRequest,
        group: _Group,
        rows: list[Row],
        *,
        started: float,
        completed: float,
        source: str,
        batch_size: int,
        unit_cost: float,
        attempts: int = 1,
        retry_backoff: float = 0.0,
        stale_version: int | None = None,
    ) -> ServeResponse:
        """One answered request: ``ok``, or ``degraded`` when the rows
        come from the stale store (*stale_version* set) — unless the
        answer lands past the request's deadline."""
        latency = completed - request.arrival
        deadline = self._deadline(request)
        response = ServeResponse(
            request_id=rid,
            label=request.label,
            status=OK if stale_version is None else DEGRADED,
            arrival=request.arrival,
            fingerprint=group.fp.digest,
            rows=list(rows),
            started=started,
            completed=completed,
            latency=latency,
            source=source,
            batch_size=batch_size,
            unit_cost=unit_cost,
            attempts=attempts,
            retry_backoff=retry_backoff,
            stale_version=stale_version,
        )
        if deadline is not None and latency > deadline:
            self.counters["deadline_exceeded"] += 1
            obs.event(
                "request-deadline",
                {"request": rid, "latency": latency, "deadline": deadline},
            )
            response.status = DEADLINE
            response.rows = None
            response.error = f"deadline exceeded: {latency:.6f}s > {deadline:.6f}s"
            if stale_version is not None:
                # A late stale answer is no answer: it names no source.
                response.source = None
                response.stale_version = None
        return response
