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

Each batching window runs one chain of stage functions — admit, shed,
resolve, answer from the result cache, expire at dispatch, form units,
dispatch attempts — and each stage hands on only the requests it lets
through.  Every request a stage ends goes to :meth:`QueryService._settle`,
the one place a :class:`ServeResponse` is built, recorded, counted and
announced (docs/serving.md, "Stages and the one settle path").  Dispatch
runs under a :class:`~repro.serve.resilience.ResilienceConfig` —
deterministic retries, a per-engine circuit breaker, graceful
degradation; ``ServiceConfig.resilience=None`` is not a second path but
the null policy :data:`_FAIL_FAST`: zero retries, a breaker that never
trips, no degradation tier.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

from repro import obs
from repro.ambient import PLANNER
from repro.core.engines import make_engine
from repro.core.results import EngineConfig, Row, check_supported
from repro.errors import OverlapError, ReproError, ServeError, SparqlError
from repro.ntga.composite import CompositePlan
from repro.ntga.engine import execute_batch
from repro.ntga.planner import batch_composite
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

#: Plan-cache capacity: raw texts, canonical forms and cost-mode plan
#: choices share it.
_PLAN_CACHE_SIZE = 128


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
        check_supported(self.engine, self.engine_config)
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1: {self.workers!r}")
        if self.max_pending < 1:
            raise ServeError(f"max_pending must be >= 1: {self.max_pending!r}")
        if not 0.0 < self.batch_window < math.inf:
            raise ServeError(
                f"batch_window must be > 0 and finite: {self.batch_window!r}"
            )
        if self.deadline is not None and not self.deadline > 0.0:
            raise ServeError(f"deadline must be > 0: {self.deadline!r}")


@dataclass(frozen=True)
class ServeRequest:
    """One query submission.  ``arrival`` is on the simulated clock,
    finite and >= 0 (checked here, so ``serve()`` never fails halfway);
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
        if not 0.0 <= self.arrival < math.inf:
            raise ServeError(f"arrival must be >= 0 and finite: {self.arrival!r}")
        if self.deadline is not None and not self.deadline > 0.0:
            raise ServeError(f"request deadline must be > 0: {self.deadline!r}")


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


#: Admitted requests, numbered: ``(request id, request)``.
_Members = list[tuple[int, ServeRequest]]


class _Group(NamedTuple):
    """All same-window requests for one distinct fingerprint."""

    fp: Fingerprint
    requests: _Members


class _Unit(NamedTuple):
    """One scheduled attempt of a solo query or a merged batch in the
    dispatch queue.  ``attempt`` is 1-based; ``not_before`` is the
    earliest simulated start (window close, or failure time + backoff)."""

    groups: list[_Group]
    not_before: float
    attempt: int = 1
    backoff_total: float = 0.0
    #: A merged batch's composite, built by the packing trial that
    #: formed it (:func:`~repro.ntga.planner.batch_composite`).
    composite: CompositePlan | None = None


class _Run(NamedTuple):
    """What one attempt produced: the answers (None on failure) and the
    simulated seconds the cluster spent — for a failed attempt, the
    committed prefix plus the aborted job's wasted work."""

    rows_by_group: list[list[Row]] | None
    cost: float
    error: str | None = None


#: What ``ServiceConfig.resilience=None`` resolves to: fail fast.  The
#: same dispatch queue with every policy at its zero — no retry budget,
#: a breaker that never trips, no degradation tier.
_FAIL_FAST = ResilienceConfig(
    retry=RetryPolicy(retries=0),
    breaker=BreakerPolicy(threshold=0),
    degradation=DegradationPolicy(stale=False, bypass_batching=False),
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

#: How settling a request with each status is announced and counted.  A
#: request is only ever *settled* ``deadline-exceeded`` at dispatch; an
#: answer that lands late is downgraded by ``_settle`` and counts
#: ``deadline_exceeded`` alone.
_ENDINGS: dict[str, tuple[str | None, tuple[str, ...]]] = {
    OK: (None, ()),
    REJECTED: ("request-reject", ("rejected",)),
    SHED: ("request-shed", ("shed_requests",)),
    FAILED: ("request-failed", ("failed",)),
    DEADLINE: (
        "request-deadline",
        ("deadline_exceeded", "deadline_exceeded_at_dispatch"),
    ),
    DEGRADED: (None, ("degraded_stale",)),
}


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
        self.plan_cache = LRUCache(_PLAN_CACHE_SIZE)
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
        retries = ("serve_retries_total", "serve-layer retries by outcome")
        #: Counters the metrics registry mirrors: key -> (metric, help,
        #: labels).  ``retry_failures`` is a series with no counter.
        self._mirrors: dict[str, tuple[str, str, dict[str, str]]] = {
            "shed_requests": ("serve_shed_total", "requests shed under load", {}),
            "degraded_stale": (
                "serve_degraded_total",
                "degraded answers by tier",
                {"tier": "stale-cache"},
            ),
            "breaker_fast_fails": (
                "serve_breaker_events_total",
                "circuit-breaker transitions and fast-fails",
                {"engine": self.config.engine, "event": "fast-fail"},
            ),
            "retry_successes": (*retries, {"outcome": "success"}),
            "retry_failures": (*retries, {"outcome": "failed"}),
            "retries_abandoned_deadline": (*retries, {"outcome": "abandoned-deadline"}),
        }
        self._next_id = 0
        self._floor = 0.0  # close time of the last processed window
        self._worker_free = [0.0] * self.config.workers
        self._open: list[float] = []  # completion times of admitted work
        #: Responses the ``serve()`` call in progress has settled, by id.
        self._settled: dict[int, ServeResponse] = {}

    # -- public API --------------------------------------------------------------

    def serve(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        """Process a batch of submissions; responses in request order."""
        window = self.config.batch_window
        numbered: _Members = []
        for request in requests:
            if request.arrival < self._floor:
                request = replace(request, arrival=self._floor)
            numbered.append((self._next_id + len(numbered), request))
        self._next_id += len(numbered)
        by_window: dict[int, _Members] = {}
        for rid, request in sorted(numbered, key=lambda r: (r[1].arrival, r[0])):
            by_window.setdefault(int(request.arrival // window), []).append(
                (rid, request)
            )
        for index in sorted(by_window):
            close = (index + 1) * window
            self._run_window(by_window[index], close)
            self._floor = max(self._floor, close)
        ordered = [self._settled.pop(rid) for rid, _ in numbered]
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
            if response.status in (OK, DEADLINE, DEGRADED):  # they all completed
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

    def _tally(self, key: str) -> None:
        """Bump counter *key* and the metric series mirroring it."""
        if key in self.counters:
            self.counters[key] += 1
        registry = obs_metrics.active_registry()
        if registry is not None and key in self._mirrors:
            name, help_text, labels = self._mirrors[key]
            registry.counter(name, help_text, tuple(sorted(labels))).labels(
                **labels
            ).inc()

    # -- the stages of one batching window ---------------------------------------

    def _run_window(self, arrivals: _Members, close: float) -> None:
        admitted = self._shed(self._admit(arrivals, close), close)
        groups = self._answer_cached(self._resolve(admitted, close), close)
        self._dispatch(self._expire(groups, close), close)

    def _admit(self, arrivals: _Members, close: float) -> _Members:
        """Admission control, at each arrival: reject it while queued plus
        still-running work has reached ``max_pending``."""
        admitted: _Members = []
        for rid, request in arrivals:
            self.counters["requests"] += 1
            self._open = [t for t in self._open if t > request.arrival]
            pending = len(self._open) + len(admitted)
            if pending >= self.config.max_pending:
                self._settle(
                    [(rid, request)],
                    REJECTED,
                    error=f"admission control: {pending} requests pending",
                    detail={"arrival": request.arrival, "pending": pending},
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
        return admitted

    def _shed(self, admitted: _Members, close: float) -> _Members:
        """The load-shedding degradation tier: when admitted plus
        still-running work at the window close crosses the threshold,
        drop the overflow — lowest priority first, latest arrival first
        within a priority — before any planning or cluster cost is
        spent.  Pure function of the window's contents, so shedding is
        as deterministic as everything else."""
        threshold = self._resilience.degradation.shed_threshold
        if threshold is None or not admitted:
            return admitted
        depth = sum(1 for t in self._open if t > close) + len(admitted)
        if depth <= threshold:
            return admitted
        ranked = sorted(
            admitted, key=lambda item: (-item[1].priority, item[1].arrival, item[0])
        )
        keep_ids = {rid for rid, _ in ranked[: len(admitted) - (depth - threshold)]}
        for rid, request in admitted:
            if rid not in keep_ids:
                self._settle(
                    [(rid, request)],
                    SHED,
                    close,
                    error=(
                        f"load shed: queue depth {depth} > "
                        f"{threshold} (priority {request.priority})"
                    ),
                    detail={
                        "priority": request.priority,
                        "depth": depth,
                        "threshold": threshold,
                    },
                )
        return [item for item in admitted if item[0] in keep_ids]

    def _resolve(self, admitted: _Members, close: float) -> list[_Group]:
        """Fingerprint each admitted request (plan cache), collapsing
        same-fingerprint requests into one group (dedup); a query that
        does not parse fails here."""
        groups: dict[str, _Group] = {}
        for rid, request in admitted:
            try:
                fp = self._fingerprint(request.text)
            except SparqlError as error:
                self._settle([(rid, request)], FAILED, close, error=str(error))
                continue
            group = groups.setdefault(fp.digest, _Group(fp, []))
            if group.requests:
                self.counters["dedup_requests"] += 1
            group.requests.append((rid, request))
        return list(groups.values())

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

    def _answer_cached(self, groups: list[_Group], close: float) -> list[_Group]:
        """Answer every group whose result is cached, at the window close
        and at no cost."""
        if not self.config.enable_result_cache:
            return groups
        misses: list[_Group] = []
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
            self._settle(
                group.requests,
                OK,
                close,
                group.fp,
                rows=rows,
                started=close,
                source="result-cache",
            )
        return misses

    def _expire(self, groups: list[_Group], close: float) -> list[_Group]:
        """Fail requests whose queue wait already exceeds their deadline
        *before* any cluster cost is charged.  The check uses the window
        close (the earliest possible start), so it is conservative:
        requests that only blow their deadline while queued behind
        earlier units are downgraded when their answer settles."""
        kept: list[_Group] = []
        for group in groups:
            survivors: _Members = []
            for rid, request in group.requests:
                deadline = self._deadline(request)
                wait = close - request.arrival
                if deadline is None or wait <= deadline:
                    survivors.append((rid, request))
                    continue
                self._settle(
                    [(rid, request)],
                    DEADLINE,
                    close,
                    group.fp,
                    started=close,
                    error=(
                        f"deadline exceeded before dispatch: "
                        f"{wait:.6f}s queued > {deadline:.6f}s"
                    ),
                    detail={"latency": wait, "deadline": deadline, "stage": "dispatch"},
                )
            if survivors:
                kept.append(_Group(group.fp, survivors))
        return kept

    def _deadline(self, request: ServeRequest) -> float | None:
        """The request's own deadline, else the config default."""
        if request.deadline is not None:
            return request.deadline
        return self.config.deadline

    def _form_units(
        self, groups: list[_Group], close: float, force_solo: bool
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
            return [_Unit([group], close) for group in groups]

        # A trial builds the composite of the merged subquery list
        # plan_batch evaluates; the last one a batch passed is the one
        # it runs on.
        batches: list[list[_Group]] = []
        composites: list[CompositePlan | None] = []
        for group in groups:
            for index, batch in enumerate(batches):
                try:
                    composite = batch_composite(
                        [member.fp.query for member in [*batch, group]]
                    )
                except OverlapError:
                    continue
                batch.append(group)
                composites[index] = composite
                break
            else:
                batches.append([group])
                composites.append(None)

        for batch in batches:
            if len(batch) > 1:
                requests = sum(len(member.requests) for member in batch)
                self.counters["batch_merges"] += 1
                self.counters["batch_merged_requests"] += requests
                obs.event(
                    "batch-merge",
                    {
                        "close": close,
                        "queries": [member.fp.digest for member in batch],
                        "requests": requests,
                    },
                )
        return [
            _Unit(batch, close, composite=composite)
            for batch, composite in zip(batches, composites)
        ]

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, groups: list[_Group], close: float) -> None:
        """Run the window's units through one deterministic work queue on
        the caller's thread.  Attempts are sequenced, each gated by the
        circuit breaker at its simulated start time; failures feed the
        breaker's sliding window, and failed units re-enter the queue
        per the retry schedule.  A failed *batch* is split into solo
        re-executions (blast-radius isolation), so one poisoned query
        cannot take down its whole window.  Queue order, worker
        assignment and breaker transitions are all driven by simulated
        times.  Every group the queue is done with — answered, turned
        away by the breaker, or out of retries — goes to ``_settle``.
        Under the fail-fast null policy the queue degenerates to "run
        each unit once, in order": nothing is re-enqueued, the breaker
        always allows, and a failed unit's members fail."""
        if not groups:
            return
        turned_away = f"circuit breaker open for engine {self.config.engine!r}"
        state = self._breaker.state(close)
        if state == CircuitBreaker.OPEN:
            for group in groups:
                self._settle(
                    group.requests,
                    FAILED,
                    close,
                    group.fp,
                    started=close,
                    error=turned_away,
                    attempts=0,
                    tally="breaker_fast_fails",
                )
            return
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
        queue = deque(self._form_units(groups, close, force_solo))
        while queue:
            unit = queue.popleft()
            worker = min(
                range(len(self._worker_free)), key=self._worker_free.__getitem__
            )
            started = max(unit.not_before, self._worker_free[worker])
            if not self._breaker.allow(started):
                for group in unit.groups:
                    self._settle(
                        group.requests,
                        FAILED,
                        started,
                        group.fp,
                        started=started,
                        error=turned_away,
                        attempts=unit.attempt - 1,
                        retry_backoff=unit.backoff_total,
                        tally="breaker_fast_fails",
                    )
                continue
            wall_start = time.perf_counter()
            run = self._run_unit(unit)
            wall = time.perf_counter() - wall_start  # diagnostic only
            resubmit = 0.0
            if unit.attempt > 1:
                # Each re-execution is a fresh workflow submission; the
                # driver overhead is priced exactly like a checkpointed
                # resubmission with nothing salvageable.
                resubmit = self.config.engine_config.cost_model.resubmit_cost(
                    committed_jobs=0, committed_bytes=0
                )
                self.retry_cost_seconds += resubmit
            batched = len(unit.groups) > 1
            self.counters["units_batch" if batched else "units_solo"] += 1
            if registry is not None:
                registry.histogram(
                    "serve_unit_queries", "distinct queries per executed unit"
                ).labels().observe(len(unit.groups))
                unit_sim, unit_wall = registry.dual_histogram(
                    "serve_unit_cost", "executed unit cost"
                )
                unit_sim.labels().observe(run.cost if run.error is None else 0.0)
                unit_wall.labels().observe(wall)
            # A failed unit occupies its worker too: the cluster burned
            # run.cost simulated seconds before the abort.
            cost = run.cost + resubmit
            completed = started + cost
            self._worker_free[worker] = completed
            self.executed_cost_seconds += cost
            if run.error is None:
                self._breaker.record_success(completed)
                if unit.attempt > 1:
                    self._tally("retry_successes")
                for group, rows in zip(unit.groups, run.rows_by_group):
                    self._settle(
                        group.requests,
                        OK,
                        completed,
                        group.fp,
                        rows=rows,
                        started=started,
                        source="batch" if batched else "solo",
                        batch_size=len(unit.groups),
                        unit_cost=run.cost,
                        attempts=unit.attempt,
                        retry_backoff=unit.backoff_total,
                    )
                continue
            self._breaker.record_failure(completed)
            if unit.attempt > 1:
                self._tally("retry_failures")
            digests = [group.fp.digest for group in unit.groups]
            obs.event(
                "unit-failed",
                {"queries": digests, "attempt": unit.attempt, "error": run.error},
            )
            if batched:
                # Blast-radius isolation: the members survive the batch.
                obs.event("batch-isolation", {"queries": digests, "error": run.error})
                self.counters["isolated_groups"] += len(unit.groups)
            for group in unit.groups:
                self._retry(group, unit, run.error, completed, queue)

    def _run_unit(self, unit: _Unit) -> _Run:
        """Execute one attempt.  A :class:`ReproError` is an outcome
        here, not an exception: the failed run carries what it burned.

        A re-execution under a fault plan derives a fresh seed — a
        resubmitted workflow gets fresh task fates, not a replay of the
        crash that killed it (see RetryPolicy.fault_seed).  A solo run
        under a non-rule planner replays the candidate the plan cache
        holds for its fingerprint, or stores the one it priced; rule
        mode never touches that cache (the serve goldens pin its
        counters)."""
        config = self.config.engine_config
        first = unit.groups[0]
        if unit.attempt > 1 and config.fault_plan is not None:
            seed = self._resilience.retry.fault_seed(
                config.fault_plan.seed, first.fp.digest, unit.attempt
            )
            config = replace(config, fault_plan=replace(config.fault_plan, seed=seed))
        try:
            if len(unit.groups) > 1:
                batch = execute_batch(
                    [group.fp.query for group in unit.groups],
                    self.graph,
                    config,
                    composite=unit.composite,
                )
                rows_by_group, cost = batch.rows_by_query, batch.cost_seconds
            else:
                key = (
                    "plan-choice",
                    first.fp.digest,
                    self.graph.version,
                    self.config.engine,
                )
                adaptive = (
                    self.config.engine == "rapid-analytics"
                    and PLANNER.resolve(config.planner) != "rule"
                )
                decision = self.plan_cache.get(key) if adaptive else None
                if decision is not None:
                    obs.event(
                        "cache-hit", {"cache": "plan-choice", "digest": first.fp.digest}
                    )
                    config = replace(config, plan_decision=decision)
                report = make_engine(self.config.engine).execute(
                    first.fp.query, self.graph, config
                )
                choice = report.plan_choice
                if adaptive and choice is not None and choice.source == "priced":
                    self.plan_cache.put(key, choice.chosen)
                if self.calibration is not None and choice is not None:
                    label = first.requests[0][1].label or first.fp.digest[:12]
                    self.calibration.record_report(label, report)
                rows_by_group, cost = [report.rows], report.cost_seconds
        except ReproError as error:
            # The cluster still burned real simulated time before the
            # abort: the committed prefix's cost plus the aborted
            # attempt's wasted seconds (attached by the runner).
            partial = getattr(error, "partial_stats", None)
            burnt = getattr(error, "wasted_seconds", 0.0) + (
                partial.total_cost if partial is not None else 0.0
            )
            return _Run(None, burnt, f"{type(error).__name__}: {error}")
        return _Run(rows_by_group, cost)

    def _retry(
        self, group: _Group, unit: _Unit, error: str, failed_at: float, queue: deque
    ) -> None:
        """Re-enqueue one group of failed *unit* — solo — per the retry
        schedule, or settle it when the budget is spent.  A retry whose
        backoff lands past every member's deadline is never scheduled —
        the deadline budget bounds the schedule."""
        retry = self._resilience.retry
        if unit.attempt <= retry.retries:  # retry k follows attempt k
            backoff = retry.backoff(group.fp.digest, unit.attempt)
            not_before = failed_at + backoff
            limits = [
                request.arrival + deadline
                for _, request in group.requests
                if (deadline := self._deadline(request)) is not None
            ]
            if not limits or not_before <= min(limits):
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
                        not_before,
                        unit.attempt + 1,
                        unit.backoff_total + backoff,
                    )
                )
                return
            self._tally("retries_abandoned_deadline")
            error = f"{error} (retry abandoned: backoff lands past deadline)"
        self._settle(
            group.requests,
            FAILED,
            failed_at,
            group.fp,
            started=failed_at,
            error=error,
            attempts=unit.attempt,
            retry_backoff=unit.backoff_total,
        )

    # -- settle --------------------------------------------------------------------

    def _settle(
        self,
        members: _Members,
        status: str,
        completed: float | None = None,
        fp: Fingerprint | None = None,
        *,
        rows: list[Row] | None = None,
        error: str | None = None,
        source: str | None = None,
        detail: dict[str, Any] | None = None,
        tally: str | None = None,
        **fields: Any,
    ) -> None:
        """End *members*, all the same way: every response the service
        returns is built, recorded as open work until *completed*,
        counted and announced here.

        An executed answer (source ``solo`` or ``batch``) is split out
        of its batch and remembered by the result cache and, with the
        stale tier on, the stale store; the first requester's execution
        answers the rest of its group (``dedup``).  A group that could
        not be executed (``failed`` with a fingerprint) is first offered
        to the stale tier: answered from the last-known-good store as
        ``degraded``, charged ``stale_serve_overhead``.  An answer
        (``ok`` or ``degraded``) that lands past its request's deadline
        is downgraded to ``deadline-exceeded``.  *detail* is the status
        event's attributes beyond the request id (default: the error);
        *tally* names one more counter to bump per request."""
        executed = source in ("solo", "batch")
        if executed:
            if source == "batch":
                obs.event(
                    "batch-split",
                    {"digest": fp.digest, "rows": len(rows), "requests": len(members)},
                )
            if self.config.enable_result_cache:
                self.result_cache.put(self._result_key(fp.digest), rows)
            if self._resilience.degradation.stale:
                self.stale_results.put(
                    fp.digest, self.config.engine, self.graph.version, rows
                )
        if status == FAILED and fp is not None and self._resilience.degradation.stale:
            stale = self.stale_results.lookup(fp.digest, self.config.engine)
            if stale is not None:
                fields["stale_version"], rows = stale
                overhead = self.config.engine_config.cost_model.stale_serve_overhead
                self.executed_cost_seconds += overhead
                obs.event(
                    "request-degraded",
                    {
                        "digest": fp.digest,
                        "stale_version": fields["stale_version"],
                        "requests": len(members),
                        "reason": error,
                    },
                )
                status, completed, error = DEGRADED, completed + overhead, None
                source = "stale-cache"
        event, counters = _ENDINGS[status]
        for position, (rid, request) in enumerate(members):
            response = ServeResponse(
                rid,
                request.label,
                status,
                request.arrival,
                fingerprint=None if fp is None else fp.digest,
                rows=None if rows is None else list(rows),
                error=error,
                completed=completed,
                latency=None if completed is None else completed - request.arrival,
                source="dedup" if executed and position else source,
                **fields,
            )
            self._settled[rid] = response
            if completed is not None:
                self._open.append(completed)
            for key in counters if tally is None else (*counters, tally):
                self._tally(key)
            if event is not None:
                obs.event(event, {"request": rid, **(detail or {"error": error})})
            deadline = self._deadline(request)
            answered = status in (OK, DEGRADED) and deadline is not None
            if answered and response.latency > deadline:
                self.counters["deadline_exceeded"] += 1
                obs.event(
                    "request-deadline",
                    {"request": rid, "latency": response.latency, "deadline": deadline},
                )
                response.status, response.rows = DEADLINE, None
                response.error = (
                    f"deadline exceeded: {response.latency:.6f}s > {deadline:.6f}s"
                )
                if status == DEGRADED:
                    # A late stale answer is no answer: it names no source.
                    response.source = response.stale_version = None
