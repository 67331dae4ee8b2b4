"""Cluster configuration, record-size estimation, and the cost model.

The simulator charges each MR job a fixed startup cost plus data-volume
terms (scan, shuffle, write) divided across the cluster's task slots.
The constants are calibration knobs, not measurements; what matters for
reproducing the paper is that *every engine is charged by the same
model*, so relative orderings and ratios reflect plan structure
(cycle counts, materialized bytes) exactly as the paper argues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from repro.rdf.terms import BNode, IRI, Literal, Variable
from repro.rdf.triples import Triple

_POINTER = 8

#: A variable's size: one column of a solution row costs a pointer; its name
#: lives in the plan's schema, so no size depends on how a query spells it.
COLUMN_BYTES = _POINTER

#: Master switch for the size caches (term/triple ``_size`` slots, the
#: per-class dispatch table below, and the triplegroup memos that
#: consult this flag).  :func:`repro.perf.reference_mode` flips it off
#: to restore the seed's uncached recomputation, the tests' reference.
SIZE_CACHE_ENABLED = True


def _reference_estimate_size(record: Any) -> int:
    """The seed implementation, verbatim: a chain of isinstance checks
    recomputing every size from scratch.  Kept callable so the property
    tests can compare the cached path against it."""
    if record is None:
        return 1
    if isinstance(record, bool):
        return 1
    if isinstance(record, int):
        return 8
    if isinstance(record, float):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, IRI):
        return len(record.value) + 2
    if isinstance(record, BNode):
        return len(record.label) + 2
    if isinstance(record, Literal):
        size = len(record.lexical) + 2
        if record.datatype:
            size += len(record.datatype) + 2
        if record.language:
            size += len(record.language) + 1
        return size
    if isinstance(record, Variable):
        return COLUMN_BYTES
    if isinstance(record, Triple):
        return (
            _reference_estimate_size(record.subject)
            + _reference_estimate_size(record.property)
            + _reference_estimate_size(record.object)
            + 2
        )
    estimator = getattr(record, "estimated_size", None)
    if callable(estimator):
        return estimator()
    if isinstance(record, (tuple, list, set, frozenset)):
        return _POINTER + sum(_reference_estimate_size(item) for item in record)
    if isinstance(record, dict):
        return _POINTER + sum(
            _reference_estimate_size(key) + _reference_estimate_size(value)
            for key, value in record.items()
        )
    return _POINTER + len(repr(record))


# -- cached fast path ----------------------------------------------------------
#
# estimate_size dominates the simulator's real wall-clock (HDFS writes,
# shuffle accounting, and triplegroup sizing all funnel through it), so
# the hot path dispatches on type(record) through a table instead of
# re-walking the isinstance chain, and pins the result on immutable
# value objects (terms and triples carry a hidden ``_size`` slot).
# Handlers reproduce the reference semantics exactly — the golden tests
# and tests/perf/test_size_cache.py hold the two paths bit-identical.


def _iri_size(record: IRI) -> int:
    size = record._size
    if size is None:
        size = len(record.value) + 2
        object.__setattr__(record, "_size", size)
    return size


def _bnode_size(record: BNode) -> int:
    size = record._size
    if size is None:
        size = len(record.label) + 2
        object.__setattr__(record, "_size", size)
    return size


def _literal_size(record: Literal) -> int:
    size = record._size
    if size is None:
        size = len(record.lexical) + 2
        if record.datatype:
            size += len(record.datatype) + 2
        if record.language:
            size += len(record.language) + 1
        object.__setattr__(record, "_size", size)
    return size


def _triple_size(record: Triple) -> int:
    size = record._size
    if size is None:
        size = (
            estimate_size(record.subject)
            + estimate_size(record.property)
            + estimate_size(record.object)
            + 2
        )
        object.__setattr__(record, "_size", size)
    return size


def _item_size(item: Any) -> int:
    """Per-element fast path shared by the container handlers.

    Warm immutable value objects (terms, triples, memoized triplegroups
    and agg rows) are recognized by their integer ``_size`` cache in a
    single C-level ``getattr`` — the ``type(...) is int`` guard rejects
    unset slots (``None``) and unrelated ``_size`` attributes (e.g.
    bound methods) so anything else takes the normal dispatch."""
    size = getattr(item, "_size", None)
    if type(size) is int:
        return size
    cls = item.__class__
    handler = _HANDLERS.get(cls)
    if handler is None:
        handler = _learn_handler(cls)
    return handler(item)


def _sequence_size(record: Any) -> int:
    total = _POINTER
    handlers = _HANDLERS
    for item in record:
        if item.__class__ is int:
            # Order tags, ids, counts: the commonest leaf, and one whose
            # ``_size`` probe below can only miss.
            total += 8
            continue
        size = getattr(item, "_size", None)
        if type(size) is int:
            total += size
            continue
        cls = item.__class__
        handler = handlers.get(cls)
        if handler is None:
            handler = _learn_handler(cls)
        total += handler(item)
    return total


def _dict_size(record: dict) -> int:
    total = _POINTER
    for key, value in record.items():
        size = getattr(key, "_size", None)
        total += size if type(size) is int else _item_size(key)
        size = getattr(value, "_size", None)
        total += size if type(size) is int else _item_size(value)
    return total


def _generic_size(record: Any) -> int:
    """Reference tail for classes the dispatch table cannot pre-judge:
    instance-level ``estimated_size``, container subclasses, then repr."""
    estimator = getattr(record, "estimated_size", None)
    if callable(estimator):
        return estimator()
    if isinstance(record, (tuple, list, set, frozenset)):
        return _sequence_size(record)
    if isinstance(record, dict):
        return _dict_size(record)
    return _POINTER + len(repr(record))


def _estimator_size(record: Any) -> int:
    return record.estimated_size()


_HANDLERS: dict[type, Any] = {
    type(None): lambda record: 1,
    bool: lambda record: 1,
    int: lambda record: 8,
    float: lambda record: 8,
    str: lambda record: len(record) + 1,
    IRI: _iri_size,
    BNode: _bnode_size,
    Literal: _literal_size,
    Triple: _triple_size,
    Variable: lambda record: COLUMN_BYTES,
    tuple: _sequence_size,
    list: _sequence_size,
    set: _sequence_size,
    frozenset: _sequence_size,
    dict: _dict_size,
}


def _sized_dict_size(record: Any) -> int:
    size = _dict_size(record)
    record._size = size
    return size


def register_sized_dict(cls: type) -> type:
    """Route a write-once dict subclass carrying a ``_size`` slot to a
    memoizing handler: the size pins on first estimate, like the term
    caches.  Only for classes whose instances are never mutated after
    they first reach the estimator (e.g. solution rows, which flow
    through shuffle accounting and materialization repeatedly).
    """
    _HANDLERS[cls] = _sized_dict_size
    return cls


def register_estimated_size(cls: type) -> type:
    """Route *cls* straight to its ``estimated_size`` method.

    Purely an optimization hook (skips one ``getattr`` per record): any
    class with a callable ``estimated_size`` is picked up automatically
    on first sight.  Usable as a decorator.
    """
    _HANDLERS[cls] = _estimator_size
    return cls


def _learn_handler(cls: type) -> Any:
    """Choose and memoize a handler for a class the table has not seen,
    following the reference path's check order."""
    if callable(getattr(cls, "estimated_size", None)):
        handler = _estimator_size
    else:
        # Container subclasses and arbitrary objects keep the per-record
        # reference tail: an instance may define estimated_size itself.
        handler = _generic_size
    _HANDLERS[cls] = handler
    return handler


def estimate_size(record: Any) -> int:
    """Approximate on-disk serialized size of a record, in bytes.

    Deterministic and cheap; used for HDFS accounting and shuffle
    volumes.  Handles the record shapes that flow through the engines:
    terms, triples, triplegroups (via their ``estimated_size``), tuples,
    dicts, and scalars.  Dispatches on exact type with per-instance
    caches on immutable records; bit-identical to
    :func:`_reference_estimate_size` by construction (and by test).
    """
    if not SIZE_CACHE_ENABLED:
        return _reference_estimate_size(record)
    size = getattr(record, "_size", None)
    if type(size) is int:
        return size
    cls = record.__class__
    handler = _HANDLERS.get(cls)
    if handler is None:
        handler = _learn_handler(cls)
    return handler(record)


def estimate_total_size(records: Any) -> int:
    """``sum(estimate_size(r) for r in records)`` with the dispatch
    inlined — the bulk entry point for HDFS writes and shuffle
    accounting, where the per-call overhead of millions of
    :func:`estimate_size` invocations is itself the bottleneck."""
    if not SIZE_CACHE_ENABLED:
        return sum(_reference_estimate_size(record) for record in records)
    total = 0
    handlers = _HANDLERS
    for record in records:
        size = getattr(record, "_size", None)
        if type(size) is int:
            total += size
            continue
        cls = record.__class__
        handler = handlers.get(cls)
        if handler is None:
            handler = _learn_handler(cls)
        total += handler(record)
    return total


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated cluster shape (defaults mirror the paper's 10-node VCL
    setup scaled to simulation units)."""

    nodes: int = 10
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 1
    block_size: int = 256 * 1024  # small blocks so laptop-scale data still splits

    @property
    def map_slots(self) -> int:
        return self.nodes * self.map_slots_per_node

    @property
    def reduce_slots(self) -> int:
        return self.nodes * self.reduce_slots_per_node

    def splits_for(self, total_bytes: int) -> int:
        """Input splits (map tasks) for one stored file.

        Zero-byte files occupy no blocks and get no mapper: a job
        reading several empty intermediate files must not charge one
        whole map task per file (the runner floors the job's *total*
        at one task, since an executing job always runs at least one
        mapper).
        """
        if total_bytes <= 0:
            return 0
        return max(1, math.ceil(total_bytes / self.block_size))


#: The order a job's phase seconds are added up in.  Not the timeline
#: order (``reduce`` before ``shuffle``): it is the order the terms have
#: always been summed in, and float addition is not associative — every
#: committed cost, golden and ledger row holds this order's bits.
_FOLD_ORDER = ("map", "exchange", "reduce", "shuffle", "materialize")


def fold_seconds(seconds: Iterable[float]) -> float:
    """Simulated seconds added left to right: the one float sum on the
    simulated clock.  The builtin ``sum`` compensates float rounding from
    Python 3.12 on, so a cost summed with it would depend on the
    interpreter."""
    total = 0.0
    for value in seconds:
        total += value
    return total


def fold_phases(phases: Iterable[tuple[str, float]]) -> float:
    """A job's cost from its :meth:`CostModel.job_cost_phases`: the one
    sum, so "the phases add up to the job cost" holds by construction."""
    seconds = dict(phases)
    return fold_seconds(seconds[name] for name in _FOLD_ORDER if name in seconds)


@dataclass(frozen=True)
class CostModel:
    """Charge rates for the simulated execution time.

    The rates are *simulation units*, calibrated so that at the
    repository's laptop-scale datasets the data-volume terms carry the
    same relative weight they had at the paper's cluster scale (where a
    single MR cycle over GB-sized tables takes minutes).  Only relative
    comparisons under one CostModel are meaningful.

    Two structural discounts matter to plan choice:

    * **map-only shuffle-skip** — :meth:`job_cost` charges shuffle
      transfer and reduce-wave overhead only when ``reduce_tasks > 0``;
      a map-only job pays the cheaper ``map_only_startup`` and writes
      output at map parallelism, skipping the shuffle term entirely;
    * **factorized byte terms** — :meth:`representation_advantage`
      prices the factorized answer representation by the shuffle and
      HDFS-write seconds its byte reduction saves, less a per-cycle
      ``factorization_overhead`` charge, and
      :meth:`choose_representation` turns that into the planner's
      ``"auto"`` decision.
    """

    job_startup: float = 8.0
    #: Map-only jobs skip reducer spin-up and shuffle setup entirely, so
    #: their fixed charge is lower — this is what makes Hive's map-join
    #: plans competitive on the paper's small-VP-table queries (G5-G8).
    map_only_startup: float = 4.5
    map_task_overhead: float = 0.4
    reduce_task_overhead: float = 0.6
    scan_rate: float = 16.0 * 1024  # bytes/sec per map slot (simulation units)
    shuffle_rate: float = 8.0 * 1024  # bytes/sec per reduce slot
    write_rate: float = 12.0 * 1024  # bytes/sec per writing slot
    #: Recovery terms (charged only under a FaultPlan).  A failed
    #: attempt waits ``retry_backoff * 2**(attempt-1)`` seconds before
    #: its re-launch (Hadoop's exponential retry delay); a speculative
    #: duplicate pays one extra task launch.
    retry_backoff: float = 2.0
    speculation_overhead: float = 0.4
    #: Workflow-resubmission terms (charged only under a RecoveryPolicy,
    #: and only when a failure actually forces a re-submission).  The
    #: driver pays a fixed re-launch charge, then validates each
    #: commit-ledger entry (a _SUCCESS-marker/fingerprint check) and
    #: re-reads the committed bytes' metadata at a fast sequential rate
    #: — cheap relative to recomputing, which is the whole point of
    #: checkpointing, but proportional to how much a long workflow has
    #: materialized (naive Hive pays more here than RAPIDAnalytics).
    resubmit_overhead: float = 6.0
    checkpoint_validate_overhead: float = 0.25
    checkpoint_read_rate: float = 64.0 * 1024  # bytes/sec, sequential revalidation
    #: Per-MR-cycle charge for producing/consuming factorized records
    #: (column assembly in σ^γopt, key reattachment in the reducer) —
    #: small, but keeps ``"auto"`` honest when a graph has no fanout to
    #: exploit and the byte savings round to nothing.
    factorization_overhead: float = 0.5
    #: Simulated seconds to assemble a *degraded* answer from the serve
    #: layer's stale result store (cache read + response assembly; no
    #: cluster work).  Tiny by design — degraded serves exist because
    #: they are cheap — but nonzero so availability bought via staleness
    #: still shows up in the cost accounting instead of looking free.
    stale_serve_overhead: float = 0.05
    #: Cross-shard exchange transfer rate (bytes/sec per receiving
    #: slot).  Charged only on sharded runs, for bytes that cross a
    #: partition boundary during the assembly exchange — deliberately
    #: slower than the intra-cluster shuffle_rate, since exchange
    #: traffic rides the inter-worker network, which is what makes
    #: min-edge-cut partitioning pay off in priced cost and not just in
    #: the byte counters.
    exchange_rate: float = 6.0 * 1024

    def representation_advantage(
        self, *, flat_bytes: int, factorized_bytes: int, cycles: int = 1
    ) -> float:
        """Simulated seconds saved by shipping factorized records.

        The byte reduction is charged once against the shuffle transfer
        rate and once against the HDFS materialization rate (both are
        on every full cycle's critical path), less the per-cycle
        :attr:`factorization_overhead`.  Negative when factorization
        cannot pay for itself (fanout ≤ 1 graphs).
        """
        saved = flat_bytes - factorized_bytes
        return (
            saved / self.shuffle_rate
            + saved / self.write_rate
            - cycles * self.factorization_overhead
        )

    def choose_representation(
        self, *, flat_bytes: int, factorized_bytes: int, cycles: int = 1
    ) -> str:
        """The planner's ``"auto"`` decision: factorize when the priced
        advantage is positive, otherwise keep flat records."""
        advantage = self.representation_advantage(
            flat_bytes=flat_bytes, factorized_bytes=factorized_bytes, cycles=cycles
        )
        return "factorized" if advantage > 0 else "flat"

    def prefer_map_join(
        self,
        cluster: ClusterConfig,
        *,
        streamed_bytes: int,
        side_bytes: int,
    ) -> bool:
        """Price broadcast (map-join) vs. shuffled (reduce-join) for one
        binary join and return True when the broadcast wins.

        The broadcast ships the side table to every map task (the
        replication that makes oversized map-joins lose); the shuffled
        alternative pays the full-job startup plus moving both inputs
        through the shuffle.  Used by the Hive executor under the
        cost-based planner instead of the fixed ``mapjoin_threshold``.
        """
        map_tasks = max(1, cluster.splits_for(streamed_bytes))
        broadcast = self.job_cost(
            cluster,
            input_bytes=streamed_bytes + side_bytes * map_tasks,
            shuffle_bytes=0,
            output_bytes=0,
            map_tasks=map_tasks,
            reduce_tasks=0,
        )
        shuffled = self.job_cost(
            cluster,
            input_bytes=streamed_bytes + side_bytes,
            shuffle_bytes=streamed_bytes + side_bytes,
            output_bytes=0,
            map_tasks=max(
                1,
                cluster.splits_for(streamed_bytes) + cluster.splits_for(side_bytes),
            ),
            reduce_tasks=cluster.reduce_slots,
        )
        return broadcast <= shuffled

    def job_cost(
        self,
        cluster: ClusterConfig,
        *,
        input_bytes: int,
        shuffle_bytes: int,
        output_bytes: int,
        map_tasks: int,
        reduce_tasks: int,
        exchange_bytes: int = 0,
    ) -> float:
        """Simulated wall-clock seconds for one MR job: the fold
        (:func:`fold_phases`) of its :meth:`job_cost_phases`.

        ``exchange_bytes`` are bytes this job received across a shard
        boundary (zero on unsharded runs); they ride the slower
        inter-worker :attr:`exchange_rate` rather than being lumped
        into the shuffle term.
        """
        return fold_phases(
            self.job_cost_phases(
                cluster,
                input_bytes=input_bytes,
                shuffle_bytes=shuffle_bytes,
                output_bytes=output_bytes,
                map_tasks=map_tasks,
                reduce_tasks=reduce_tasks,
                exchange_bytes=exchange_bytes,
            )
        )

    def job_cost_phases(
        self,
        cluster: ClusterConfig,
        *,
        input_bytes: int,
        shuffle_bytes: int,
        output_bytes: int,
        map_tasks: int,
        reduce_tasks: int,
        exchange_bytes: int = 0,
    ) -> list[tuple[str, float]]:
        """The price of one MR job, as its dataflow phases — the only
        place the job rates are applied.

        Returns ``(phase_name, seconds)`` pairs in timeline order —
        ``map`` (startup + map waves + scan), then ``exchange``
        (cross-shard transfer, present only when ``exchange_bytes > 0``
        so unsharded decompositions keep their historical shape), then
        for full jobs ``shuffle`` (transfer) and ``reduce`` (reduce
        waves), then ``materialize`` (output write).  The trace recorder
        lays them out back to back on the simulated timeline;
        :func:`fold_phases` of them *is* :meth:`job_cost`.
        """
        # An executing job always runs at least one map wave, even when
        # its inputs occupy zero splits (empty intermediate files).
        map_waves = max(1, math.ceil(map_tasks / cluster.map_slots))
        map_parallelism = max(1, min(map_tasks, cluster.map_slots))
        startup = self.job_startup if reduce_tasks > 0 else self.map_only_startup
        map_seconds = (
            startup
            + map_waves * self.map_task_overhead
            + input_bytes / (self.scan_rate * map_parallelism)
        )
        phases = [("map", map_seconds)]
        if exchange_bytes > 0:
            receive_parallelism = max(
                1, min(reduce_tasks or map_tasks, cluster.reduce_slots)
            )
            phases.append(
                (
                    "exchange",
                    exchange_bytes / (self.exchange_rate * receive_parallelism),
                )
            )
        if reduce_tasks > 0:
            reduce_waves = math.ceil(reduce_tasks / cluster.reduce_slots)
            reduce_parallelism = max(1, min(reduce_tasks, cluster.reduce_slots))
            phases.append(
                ("shuffle", shuffle_bytes / (self.shuffle_rate * reduce_parallelism))
            )
            phases.append(("reduce", reduce_waves * self.reduce_task_overhead))
            phases.append(
                ("materialize", output_bytes / (self.write_rate * reduce_parallelism))
            )
        else:
            phases.append(
                ("materialize", output_bytes / (self.write_rate * map_parallelism))
            )
        return phases

    def recovery_cost(
        self,
        *,
        rescanned_bytes: float = 0.0,
        reshuffled_bytes: float = 0.0,
        rewritten_bytes: float = 0.0,
        backoff_units: float = 0.0,
        speculative_tasks: int = 0,
    ) -> float:
        """Extra simulated seconds spent recovering from injected faults.

        Re-executed work runs on a single slot — a retry is one task's
        re-attempt, not a cluster-wide wave — so re-driven bytes are
        charged at the raw per-slot rates.  ``backoff_units`` is the sum
        of exponential-backoff multipliers (``2**(attempt-1)`` per failed
        attempt) accumulated by the runner.  Every term is non-negative
        and non-decreasing in its input, which is what makes total cost
        monotone in the fault rates.
        """
        cost = backoff_units * self.retry_backoff
        cost += speculative_tasks * self.speculation_overhead
        cost += rescanned_bytes / self.scan_rate
        cost += reshuffled_bytes / self.shuffle_rate
        cost += rewritten_bytes / self.write_rate
        return cost

    def resubmit_cost(self, *, committed_jobs: int, committed_bytes: int) -> float:
        """Simulated seconds to re-submit a failed workflow.

        Charged once per workflow re-submission by the checkpoint/resume
        layer: a fixed driver re-launch charge, plus per-committed-job
        checkpoint validation, plus a sequential re-read of the
        committed bytes at :attr:`checkpoint_read_rate`.  Non-negative
        and non-decreasing in both arguments, so total recovery overhead
        is monotone in the number of failures (given a fixed ledger).
        """
        return (
            self.resubmit_overhead
            + committed_jobs * self.checkpoint_validate_overhead
            + committed_bytes / self.checkpoint_read_rate
        )
