"""Concurrent analytical-query serving (``repro serve``).

Lifts the paper's overlap-driven sharing from intra-query to
cross-request: a :class:`~repro.serve.service.QueryService` schedules
many queries against one shared graph with admission control, plan and
result caches keyed by canonical query fingerprints, and an MQO batcher
that merges overlapping requests into one composite workflow and
n-splits the answers back.  :mod:`repro.serve.resilience` adds the
fault-facing layer: deterministic retries, a per-engine circuit
breaker, and graceful degradation tiers.  See ``docs/serving.md``.
"""

from repro.serve.cache import LRUCache, StaleResultStore
from repro.serve.fingerprint import Fingerprint, fingerprint_query
from repro.serve.resilience import (
    RESILIENCE_SCHEMA,
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
    serve_resilience_report,
)
from repro.serve.service import (
    DEADLINE,
    DEGRADED,
    FAILED,
    OK,
    REJECTED,
    SHED,
    QueryService,
    ServeRequest,
    ServeResponse,
    ServiceConfig,
)
from repro.serve.slo import DEFAULT_SLOS, SLOSpec, evaluate_slo
from repro.serve.workload import (
    SERVE_SCHEMA,
    WORKLOAD_MIXES,
    WorkloadSpec,
    default_slo,
    render_serve_report,
    serve_workload_report,
    serve_workload_with_metrics,
)

__all__ = [
    "DEADLINE",
    "DEFAULT_SLOS",
    "DEGRADED",
    "FAILED",
    "Fingerprint",
    "LRUCache",
    "OK",
    "QueryService",
    "REJECTED",
    "RESILIENCE_SCHEMA",
    "SERVE_SCHEMA",
    "SHED",
    "SLOSpec",
    "BreakerPolicy",
    "CircuitBreaker",
    "DegradationPolicy",
    "ResilienceConfig",
    "RetryPolicy",
    "ServeRequest",
    "ServeResponse",
    "ServiceConfig",
    "StaleResultStore",
    "WORKLOAD_MIXES",
    "WorkloadSpec",
    "default_slo",
    "evaluate_slo",
    "fingerprint_query",
    "render_serve_report",
    "serve_resilience_report",
    "serve_workload_report",
    "serve_workload_with_metrics",
]
