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

from repro.serve.fingerprint import fingerprint_query
from repro.serve.resilience import ResilienceConfig
from repro.serve.service import QueryService, ServeRequest, ServiceConfig

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServeRequest",
    "ResilienceConfig",
    "fingerprint_query",
]
