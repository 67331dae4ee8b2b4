"""Execution of simulated MapReduce jobs and workflows.

The runner faithfully models the dataflow of one Hadoop cycle:

1. the inputs are divided into splits (one map task per block);
2. each map task runs the mapper over its records;
3. with a fold, each map task aggregates its own output in place, one
   partial per key, before anything is shuffled (or, in a map-only job,
   written) — this is exactly the mapper-side hash aggregation the
   paper's TG_AgJ operator relies on;
4. map output is shuffled (grouped by key across all tasks) and the
   reducer runs per key;
5. the reduce (or map, for map-only jobs) output is materialized to
   HDFS, where a capacity limit may fire.

Costs are charged by :class:`repro.mapreduce.cost.CostModel` from the
exact simulated byte/record volumes.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from repro import ambient, obs
from repro.errors import (
    CheckpointError,
    MapReduceError,
    TaskFailedError,
    WorkflowAbortedError,
)
from repro.mapreduce.checkpoint import (
    LedgerEntry,
    RecoveryPolicy,
    RecoveryStats,
    fingerprint_inputs,
)
from repro.mapreduce import cost
from repro.mapreduce.cost import (
    ClusterConfig,
    CostModel,
    estimate_size,
    estimate_total_size,
    fold_phases,
    fold_seconds,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import HDFS, HDFSFile
from repro.mapreduce.job import JobStats, Mapper, MapReduceJob
from repro.rdf.terms import BNode, IRI, Literal, Variable, term_interned_sort_key

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.model import Span


@dataclass
class WorkflowStats:
    """Aggregate outcome of a job sequence (one engine execution)."""

    jobs: list[JobStats] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    #: Salvage accounting, attached by ``MapReduceRunner.finalize`` when
    #: the runner carries a :class:`~repro.mapreduce.checkpoint.RecoveryPolicy`.
    #: ``None`` on every non-recovered run, so the default path's numbers
    #: are untouched.
    recovery: RecoveryStats | None = None
    #: Simulated seconds saved by shards executing concurrently: for
    #: each logical job the sharded driver runs N per-shard jobs whose
    #: costs the job list records serially, then credits back
    #: ``sum(shard costs) - max(shard costs)`` here (the shards overlap
    #: on the wall clock; only the slowest is on the critical path).
    #: Zero on unsharded runs.
    overlap_seconds: float = 0.0

    @property
    def cycles(self) -> int:
        return len(self.jobs)

    def priced_cycles(self) -> list[tuple[Any, list[JobStats]]]:
        """The executed jobs grouped by the estimate they carry, in
        execution order: one ``(estimate, parts)`` per cycle the cost
        planner priced (none in rule mode or on Hive).  Unsharded, a
        cycle is one part; the sharded driver runs it as per-shard parts
        that inherit its estimate -- the partial and assemble jobs of a
        full cycle, the broadcast jobs of a map-only one."""
        cycles: dict[int, tuple[Any, list[JobStats]]] = {}
        for job in self.jobs:
            if job.estimate is not None:
                cycles.setdefault(id(job.estimate), (job.estimate, []))[1].append(job)
        return list(cycles.values())

    @property
    def map_only_cycles(self) -> int:
        return sum(1 for job in self.jobs if job.map_only)

    @property
    def full_cycles(self) -> int:
        return self.cycles - self.map_only_cycles

    @property
    def total_cost(self) -> float:
        cost = fold_seconds(job.cost_seconds for job in self.jobs) - self.overlap_seconds
        if self.recovery is not None:
            cost += self.recovery.extra_seconds
        return cost

    @property
    def total_shuffle_bytes(self) -> int:
        return sum(job.shuffle_bytes for job in self.jobs)

    @property
    def total_exchange_bytes(self) -> int:
        return sum(job.exchange_bytes for job in self.jobs)

    @property
    def total_materialized_bytes(self) -> int:
        return sum(job.output_bytes for job in self.jobs)

    def describe(self) -> str:
        lines = [job.describe() for job in self.jobs]
        lines.append(
            f"TOTAL: {self.cycles} cycles ({self.map_only_cycles} map-only), "
            f"cost={self.total_cost:.2f}s"
        )
        # Fault runs would otherwise hide their recovery work entirely:
        # the fault counters (retried_tasks, wasted_bytes, ...) live only
        # in the counter dict, so surface every counter here.
        values = self.counters.as_dict()
        if values:
            rendered = " ".join(f"{name}={values[name]}" for name in sorted(values))
            lines.append(f"counters: {rendered}")
        if self.recovery is not None and (
            self.recovery.resubmissions or self.recovery.jobs_skipped
        ):
            lines.append(self.recovery.describe())
        return "\n".join(lines)


def _chunk(records: Sequence[Any], tasks: int) -> list[Sequence[Any]]:
    """Split records into *tasks* contiguous chunks (some may be empty).

    Chunks are read-only views of the caller's sequence: the single-task
    case returns the sequence itself and the multi-task case slices it
    once (the seed wrapped both in an extra ``list(...)``, copying every
    record list a second time on the hottest path in the runner).
    """
    if tasks <= 1:
        return [records]
    size, remainder = divmod(len(records), tasks)
    chunks: list[Sequence[Any]] = []
    start = 0
    for index in range(tasks):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(records[start:end])
        start = end
    return chunks


#: Master switch for the interned-sort-key fast path below;
#: :func:`repro.perf.reference_mode` flips it off to restore the seed's
#: per-comparison-pass ``repr`` rebuilds.
SORT_KEY_CACHE_ENABLED = True

_TERM_TYPES = (IRI, BNode, Literal, Variable)


def _raw_sort_key(key: Any) -> tuple[str, str]:
    """The seed's deterministic shuffle ordering: type name, then repr."""
    return (type(key).__name__, repr(key))


def _key_repr(key: Any) -> str:
    """``repr(key)`` rebuilt from interned per-term reprs.

    RDF terms pay their (slow) dataclass repr once ever; composite tuple
    keys re-assemble the exact tuple repr from the cached pieces.  The
    output is character-identical to ``repr(key)``, so sorting by it
    cannot reorder anything relative to :func:`_raw_sort_key`.
    """
    if isinstance(key, _TERM_TYPES):
        return term_interned_sort_key(key)[1]
    if key.__class__ is tuple:
        if len(key) == 1:
            return f"({_key_repr(key[0])},)"
        return f"({', '.join(_key_repr(item) for item in key)})"
    return repr(key)


def _sort_key(key: Any) -> tuple[str, str]:
    if not SORT_KEY_CACHE_ENABLED:
        return _raw_sort_key(key)
    return (key.__class__.__name__, _key_repr(key))


def _even_share(total: int, parts: int, index: int) -> int:
    """Task *index*'s share of *total* bytes split evenly over *parts*
    tasks — exact integer partition (the shares sum to *total*)."""
    return total * (index + 1) // parts - total * index // parts


def _no_clock() -> float:
    """Stands in for ``perf_counter`` when no telemetry sink is installed."""
    return 0.0


class _JobInputs(NamedTuple):
    """What the read stage hands the rest of a job."""

    records: list[Any]
    mapper: Mapper
    map_tasks: int
    stored_bytes: int  # on-disk bytes (drives split count and counters)
    work_bytes: int  # decompressed bytes (drives scan cost)
    side_stored_bytes: int
    side_work_bytes: int


def _map_only(job: MapReduceJob, inputs: _JobInputs, counters: Counters) -> list[Any]:
    """The map stage of a map-only job: mapper output is the job output
    (with a fold, each map task's ``(key, partial)`` pairs)."""
    mapper = inputs.mapper
    output_records: list[Any] = []
    if job.fold is not None:
        for chunk in _chunk(inputs.records, inputs.map_tasks):
            output_records.extend(_fold_task(job, mapper, chunk, counters).items())
        return output_records
    for record in inputs.records:
        output_records.extend(mapper(record))
    # A map-only mapper whose every output record is a 2-tuple
    # is almost certainly a shuffle mapper missing its reducer;
    # failing here names the producing job instead of letting a
    # downstream consumer crash confusingly.  (The first
    # non-tuple record short-circuits the scan.)
    if (
        output_records
        and not job.emits_pairs
        and all(type(record) is tuple and len(record) == 2 for record in output_records)
    ):
        raise MapReduceError(
            f"job {job.name!r}: map-only mapper emitted only "
            f"(key, value) pairs — did you forget the reducer? "
            f"(set emits_pairs=True if 2-tuple records are intended)"
        )
    counters.increment("map_output_records", len(output_records))
    return output_records


def _fold_task(
    job: MapReduceJob, mapper: Mapper, chunk: Sequence[Any], counters: Counters
) -> dict[Any, Any]:
    """One map task's hash aggregation (``MapReduceJob.fold``): one
    partial per key, keyed in first-emission order."""
    assert job.fold is not None
    zero, step = job.fold
    partials: dict[Any, Any] = {}
    emitted = 0
    for record in chunk:
        for pair in mapper(record):
            try:
                key, item = pair
            except (TypeError, ValueError):
                raise MapReduceError(
                    f"job {job.name!r}: mapper of a folded job must emit (key, value) pairs"
                ) from None
            emitted += 1
            partial = partials.get(key)
            if partial is None:
                partial = partials[key] = zero(item)
            step(partial, item)
    counters.increment("map_output_records", emitted)
    counters.increment("combine_input_records", emitted)
    counters.increment("combine_output_records", len(partials))
    return partials


def _map_combine(
    job: MapReduceJob, inputs: _JobInputs, counters: Counters
) -> list[tuple[Any, Any]]:
    """The map stage of a full job, one task (input chunk) at a time;
    with a fold, each task ships its partials in shuffle-key order."""
    mapper = inputs.mapper
    shuffle_pairs: list[tuple[Any, Any]] = []
    for chunk in _chunk(inputs.records, inputs.map_tasks):
        if job.fold is None:
            emitted = len(shuffle_pairs)
            for record in chunk:
                shuffle_pairs.extend(mapper(record))
            counters.increment("map_output_records", len(shuffle_pairs) - emitted)
            continue
        partials = _fold_task(job, mapper, chunk, counters)
        shuffle_pairs.extend([(key, partials[key]) for key in sorted(partials, key=_sort_key)])
    return shuffle_pairs


def _sort_shuffle(
    job: MapReduceJob, shuffle_pairs: list[tuple[Any, Any]], counters: Counters
) -> tuple[dict[Any, list[Any]], int]:
    """Group the map output by key across all tasks and size what
    crosses the wire; returns ``(values by key, shuffle bytes)``."""
    by_key: dict[Any, list[Any]] = defaultdict(list)
    # Validation of the pair shape happens via the unpacking
    # itself — per-pair isinstance checks in the map loop cost
    # real time at millions of emitted pairs.
    try:
        for key, value in shuffle_pairs:
            by_key[key].append(value)
    except (TypeError, ValueError):
        raise MapReduceError(
            f"job {job.name!r}: mapper of a full MR job must emit (key, value) pairs"
        ) from None
    # Batched accounting: each distinct key is sized once and
    # multiplied by its multiplicity — arithmetic identical to
    # the seed's per-pair sum (equal keys have value-derived,
    # hence equal, sizes).
    shuffle_bytes = job.shuffle_bytes_hint
    if shuffle_bytes is None or not cost.SIZE_CACHE_ENABLED:
        shuffle_bytes = sum(
            estimate_size(key) * len(values) + estimate_total_size(values)
            for key, values in by_key.items()
        )
    counters.increment("shuffle_bytes", shuffle_bytes)
    counters.increment("reduce_input_records", len(shuffle_pairs))
    return by_key, shuffle_bytes


def _reduce(
    job: MapReduceJob, by_key: dict[Any, list[Any]], counters: Counters
) -> list[Any]:
    """Run the reducer per key, in the deterministic shuffle order."""
    assert job.reducer is not None
    output_records: list[Any] = []
    for key in sorted(by_key, key=_sort_key):
        output_records.extend(job.reducer(key, by_key[key]))
    counters.increment("reduce_output_records", len(output_records))
    return output_records


def _trace_job(
    span: Span,
    stats: JobStats,
    phases: list[tuple[str, float]],
    walls: dict[str, tuple[float, float]],
) -> None:
    """Put the priced job on its span: the volumes as attributes, and
    the phases laid back to back on the simulated timeline, each with
    the wall interval its stage ran in (``exchange`` has no stage of its
    own in this process: a wall-clock instant)."""
    tracer = ambient.tracer
    span.attrs.update(
        map_only=stats.map_only,
        map_tasks=stats.map_tasks,
        reduce_tasks=stats.reduce_tasks,
        input_bytes=stats.input_bytes,
        side_input_bytes=stats.side_input_bytes,
        shuffle_bytes=stats.shuffle_bytes,
        output_bytes=stats.output_bytes,
        input_records=stats.input_records,
        output_records=stats.output_records,
        cost_seconds=stats.cost_seconds,
        labels=list(stats.labels),
    )
    if stats.exchange_bytes:
        span.attrs["exchange_bytes"] = stats.exchange_bytes
    offset = tracer.sim_now
    for phase_name, seconds in phases:
        tracer.add_closed_span(
            phase_name,
            "phase",
            sim_start=offset,
            sim_dur=seconds,
            wall=walls.get(phase_name),
        )
        offset += seconds
    tracer.advance_sim(stats.cost_seconds)


class _OlderHeapSetAside:
    """Keeps the collector off everything allocated before a workflow.

    The heap that outlives a query -- the graph, its derived layouts,
    their per-group memos, rows the caller still holds -- is immutable
    and acyclic, yet every collection a workflow triggers re-walks the
    part of it in the collected generation, a full one all of it.
    Freezing it moves it out of the collector's sight for the duration;
    unfreezing puts it back when the outermost workflow ends, however it
    ends.  The collector itself stays on: whatever the workflow
    allocates is tracked and collected as ever.  A process that has
    frozen its own heap keeps it: nothing is added to or released from a
    freeze this did not make.

    One instance per process, because what it tracks -- the collector's
    permanent generation -- is one per process.  ``depth`` counts the
    ``run_workflow`` calls in flight (a ``submit`` may re-enter it):
    asking ``gc.get_freeze_count()`` again instead would walk every
    frozen object on each entry.  Unlocked, under the concurrency
    contract of :mod:`repro.ambient`: nothing under ``src/`` starts a
    thread.
    """

    __slots__ = ("depth", "froze")

    def __init__(self) -> None:
        self.depth = 0
        self.froze = False  # by the outermost entry (not by the embedder)

    def __enter__(self) -> None:
        if self.depth == 0:
            self.froze = gc.get_freeze_count() == 0
            if self.froze:
                gc.freeze()
        self.depth += 1

    def __exit__(self, *exc_info: Any) -> None:
        self.depth -= 1
        if self.depth == 0 and self.froze:
            gc.unfreeze()


_older_heap_set_aside = _OlderHeapSetAside()


class MapReduceRunner:
    """Runs jobs against one HDFS instance under one cost configuration.

    With a :class:`~repro.mapreduce.faults.FaultPlan`, the runner also
    simulates Hadoop-style recovery: per-task retry with exponential
    backoff, speculative duplicates for stragglers, and job abort (a
    typed :class:`~repro.errors.TaskFailedError`) once a task exhausts
    its attempts budget.  Recovery changes only the fault counters and
    the charged cost — results and base counters stay bit-identical to
    the fault-free run.

    With a :class:`~repro.mapreduce.checkpoint.RecoveryPolicy`, job
    aborts stop being fatal to the whole workflow: every successful job
    commits a checkpoint into the HDFS commit ledger, and a workflow
    re-submission (:meth:`run_workflow`'s retry loop, which the sharded
    driver and the Hive engine re-drive through as well) skips
    ledger-committed jobs, recomputing only the failed suffix.  Skipped
    jobs replay their stored stats and counters, so a resumed run's
    rows and base counters are bit-identical to an uninterrupted one.
    """

    def __init__(
        self,
        hdfs: HDFS,
        cluster: ClusterConfig | None = None,
        cost_model: CostModel | None = None,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ):
        self.hdfs = hdfs
        self.cluster = cluster or ClusterConfig()
        self.cost_model = cost_model or CostModel()
        if fault_plan is not None and fault_plan.is_noop:
            fault_plan = None  # zero rates: skip the recovery pass entirely
        self.fault_plan = fault_plan
        self.recovery = recovery
        self.recovery_stats = RecoveryStats()
        #: Workflow submission ordinal, folded into the fault identity so
        #: a re-submission draws fresh faults (a deterministic plan would
        #: otherwise replay the identical abort forever).  Zero for the
        #: first submission, which keeps first-run fault draws
        #: bit-identical to the pre-checkpoint simulator.
        self._submission = 0

    # -- single job ------------------------------------------------------------

    def run_job(self, job: MapReduceJob, counters: Counters | None = None) -> JobStats:
        fingerprint: str | None = None
        if self.recovery is not None:
            fingerprint = fingerprint_inputs(self.hdfs, job)
            skipped = self._checkpoint_skip(job, fingerprint, counters)
            if skipped is not None:
                return skipped
        # The job's own counter contributions accumulate in a scratch bag
        # and merge into the caller's counters only on success, so an
        # aborted job never pollutes the workflow's accounting (the
        # scratch travels on the TaskFailedError instead).
        scratch = Counters()
        if ambient.tracer is None:  # tracing off: skip the span bracket entirely
            stats = self._execute_job(job, scratch, None)
        else:
            with obs.span(f"job:{job.name}", "job") as span:
                stats = self._execute_job(job, scratch, span)
        if counters is not None:
            counters.merge(scratch)
        if self.recovery is not None:
            assert fingerprint is not None
            self._checkpoint_commit(job, fingerprint, stats, scratch)
        return stats

    def _execute_job(
        self,
        job: MapReduceJob,
        counters: Counters,
        span: Span | None,
    ) -> JobStats:
        """One job through its stages — read, map(+combine),
        sort-shuffle, reduce, materialize — then priced once (that one
        phase list feeds the tracer and the registry) and, under a fault
        plan, recovered.  The wall clock is read at the stage boundaries
        only when one of the two sinks is installed."""
        registry = ambient.registry
        clock = time.perf_counter if span is not None or registry is not None else _no_clock
        # Per-shard jobs run on their worker's slice of the cluster.
        cluster = job.cluster or self.cluster
        marks = [clock()]  # one reading per stage boundary
        inputs = self._read_inputs(job, cluster, counters)
        shuffle_bytes = reduce_tasks = 0
        if job.is_map_only:
            stages: tuple[str, ...] = ("map", "materialize")
            output_records = _map_only(job, inputs, counters)
        else:
            stages = ("map", "shuffle", "reduce", "materialize")
            shuffle_pairs = _map_combine(job, inputs, counters)
            marks.append(clock())
            by_key, shuffle_bytes = _sort_shuffle(job, shuffle_pairs, counters)
            reduce_tasks = max(1, min(len(by_key), cluster.reduce_slots))
            counters.increment("reduce_tasks", reduce_tasks)
            marks.append(clock())
            output_records = _reduce(job, by_key, counters)
        marks.append(clock())
        output_file = self._materialize(job, output_records, counters)
        marks.append(clock())

        stats, phases = self._price(
            job, cluster, inputs, reduce_tasks, shuffle_bytes, output_file, len(output_records)
        )
        if span is not None:
            _trace_job(span, stats, phases, dict(zip(stages, zip(marks, marks[1:]))))
        recovery = 0.0
        if self.fault_plan is not None:
            recovery = self._recover(job, counters, stats, inputs, output_file, span)
        if registry is not None:
            self._record_job_metrics(registry, stats, phases, recovery, clock() - marks[0])
        return stats

    def _read_inputs(
        self, job: MapReduceJob, cluster: ClusterConfig, counters: Counters
    ) -> _JobInputs:
        """Read the job's inputs and side inputs from HDFS, split the
        former into map tasks and resolve the mapper."""
        input_records: list[Any] = []
        input_bytes = 0
        input_work_bytes = 0
        map_tasks = 0
        for path in job.inputs:
            file = self.hdfs.read(path)
            if job.tag_inputs:
                input_records.extend([(path, record) for record in file.records])
            else:
                input_records.extend(file.records)
            input_bytes += file.size_bytes
            input_work_bytes += file.raw_bytes
            # Splits come from the stored size: compressed tables occupy
            # fewer blocks, hence fewer mappers (the paper's ORC effect);
            # zero-byte files occupy no blocks and add no mapper.
            map_tasks += cluster.splits_for(file.size_bytes)
        # An executing job always runs at least one map task, even when
        # every input is an empty intermediate file (the implicit task
        # that discovers there is nothing to do still launches and must
        # be charged as a wave).
        map_tasks = max(1, map_tasks)

        side_data: dict[str, list[Any]] = {}
        side_bytes = 0
        side_work_bytes = 0
        for path in job.side_inputs:
            file = self.hdfs.read(path)
            side_data[path] = file.records
            side_bytes += file.size_bytes
            side_work_bytes += file.raw_bytes

        counters.increment("map_tasks", map_tasks)
        counters.increment("map_input_records", len(input_records))
        counters.increment("hdfs_bytes_read", input_bytes + side_bytes)
        return _JobInputs(
            records=input_records,
            mapper=job.resolve_mapper(side_data),
            map_tasks=map_tasks,
            stored_bytes=input_bytes,
            work_bytes=input_work_bytes,
            side_stored_bytes=side_bytes,
            side_work_bytes=side_work_bytes,
        )

    def _materialize(
        self, job: MapReduceJob, output_records: list[Any], counters: Counters
    ) -> HDFSFile:
        """Write the job's output to HDFS (where a capacity limit may
        fire) and close the cycle's counters."""
        output_file = self.hdfs.write(job.output, output_records, job.output_compressed)
        counters.increment("hdfs_bytes_written", output_file.size_bytes)
        counters.increment("mr_cycles")
        if job.is_map_only:
            counters.increment("map_only_cycles")
        if job.exchange_bytes:
            # Gated: the counter family exists only on sharded runs, so
            # unsharded counter bags keep their historical key sets.
            counters.increment("exchange_bytes", job.exchange_bytes)
        return output_file

    def _price(
        self,
        job: MapReduceJob,
        cluster: ClusterConfig,
        inputs: _JobInputs,
        reduce_tasks: int,
        shuffle_bytes: int,
        output_file: HDFSFile,
        output_records: int,
    ) -> tuple[JobStats, list[tuple[str, float]]]:
        """Price the finished job from its exact volumes — the one
        evaluation of the cost model per job.  The job's cost is the
        fold of the returned phases."""
        phases = self.cost_model.job_cost_phases(
            cluster,
            input_bytes=inputs.work_bytes + inputs.side_work_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=output_file.raw_bytes,
            map_tasks=inputs.map_tasks,
            reduce_tasks=reduce_tasks,
            exchange_bytes=job.exchange_bytes,
        )
        stats = JobStats(
            name=job.name,
            map_only=job.is_map_only,
            map_tasks=inputs.map_tasks,
            reduce_tasks=reduce_tasks,
            input_bytes=inputs.stored_bytes,
            side_input_bytes=inputs.side_stored_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=output_file.size_bytes,
            input_records=len(inputs.records),
            output_records=output_records,
            cost_seconds=fold_phases(phases),
            labels=job.labels,
            exchange_bytes=job.exchange_bytes,
            estimate=job.estimate,
        )
        return stats, phases

    def _recover(
        self,
        job: MapReduceJob,
        counters: Counters,
        stats: JobStats,
        inputs: _JobInputs,
        output_file: HDFSFile,
        span: Span | None,
    ) -> float:
        """Replay the fault plan over the finished job and fold what
        recovery cost into *stats*; returns the recovery seconds."""
        try:
            recovery, retried, speculative, wasted = self._recover_faults(
                job,
                counters,
                map_tasks=stats.map_tasks,
                reduce_tasks=stats.reduce_tasks,
                map_bytes=inputs.work_bytes,
                side_bytes=inputs.side_work_bytes,
                shuffle_bytes=stats.shuffle_bytes,
                output_raw=output_file.raw_bytes,
            )
        except TaskFailedError as error:
            # Attach the aborted attempt's work so post-mortems see
            # it: the scratch counters (never merged anywhere), the
            # attempt's charged base cost, and the discarded output.
            error.job_output = job.output
            error.job_counters = counters
            error.wasted_seconds = stats.cost_seconds
            error.wasted_bytes = output_file.size_bytes
            raise
        stats.cost_seconds += recovery
        stats.retried_tasks = retried
        stats.speculative_tasks = speculative
        stats.wasted_bytes = wasted
        if span is not None:
            tracer = ambient.tracer
            if recovery:
                tracer.add_closed_span(
                    "recovery",
                    "phase",
                    sim_dur=recovery,
                    attrs={
                        "retried_tasks": retried,
                        "speculative_tasks": speculative,
                        "wasted_bytes": wasted,
                    },
                )
                tracer.advance_sim(recovery)
            span.attrs["cost_seconds"] = stats.cost_seconds
        return recovery

    def _record_job_metrics(
        self,
        registry: MetricsRegistry,
        stats: JobStats,
        phases: list[tuple[str, float]],
        recovery: float,
        wall: float,
    ) -> None:
        """Fold one executed job into the active metrics registry: its
        priced phases as per-phase histograms, the dual-clock end-to-end
        cost, and fault/recovery events."""
        kind = "map_only" if stats.map_only else "full"
        registry.counter(
            "mr_jobs_total", "MapReduce jobs executed", ("kind",)
        ).labels(kind=kind).inc()
        phase_hist = registry.histogram(
            "mr_phase_sim_seconds",
            "per-job cost-phase decomposition (simulated clock)",
            ("phase",),
        )
        for phase_name, seconds in phases:
            phase_hist.labels(phase=phase_name).observe(seconds)
        job_sim, job_wall = registry.dual_histogram(
            "mr_job_cost", "end-to-end job cost"
        )
        job_sim.labels().observe(stats.cost_seconds)
        job_wall.labels().observe(wall)
        if self.fault_plan is None:
            return
        faults = registry.counter(
            "mr_fault_events_total", "recovered fault events", ("kind",)
        )
        if stats.retried_tasks:
            faults.labels(kind="task_retry").inc(stats.retried_tasks)
        if stats.speculative_tasks:
            faults.labels(kind="speculative").inc(stats.speculative_tasks)
        if stats.wasted_bytes:
            registry.counter(
                "mr_fault_wasted_bytes_total",
                "bytes discarded by retried/speculative attempts",
            ).labels().inc(stats.wasted_bytes)
        if recovery:
            registry.histogram(
                "mr_recovery_sim_seconds", "recovery time added per faulted job"
            ).labels().observe(recovery)

    # -- fault recovery ----------------------------------------------------------

    def _abort(self, job: MapReduceJob, kind: str, index: int) -> None:
        """Job-level abort: an aborted job commits no output."""
        assert self.fault_plan is not None
        obs.event(
            "job-abort",
            {"kind": kind, "index": index, "attempts": self.fault_plan.max_attempts},
        )
        self.hdfs.delete(job.output)
        raise TaskFailedError(job.name, kind, index, self.fault_plan.max_attempts)

    def _recover_faults(
        self,
        job: MapReduceJob,
        counters: Counters,
        *,
        map_tasks: int,
        reduce_tasks: int,
        map_bytes: int,
        side_bytes: int,
        shuffle_bytes: int,
        output_raw: int,
    ) -> tuple[float, int, int, int]:
        """Replay the fault plan against the completed job's task grid.

        Recovery is an accounting pass: the happy-path execution above
        already produced the (deterministic) results, so a simulated
        crash only re-charges the re-executed work — re-scanned input
        splits (plus re-broadcast side tables), re-fetched shuffle
        partitions, re-written output — plus exponential backoff, and
        bumps the fault counters.  Exhausting a task's attempts budget
        aborts the job with :class:`TaskFailedError`.

        Returns ``(extra_cost_seconds, retried, speculative, wasted)``.
        """
        plan = self.fault_plan
        assert plan is not None
        # The fault identity folds the job's data volumes in with its
        # name: planner-generated names repeat across queries (every
        # NTGA plan has an "ra:agg-join"), and keying on the name alone
        # would replay the same fault pattern into every query.
        token = f"{job.name}|{map_bytes}|{shuffle_bytes}|{output_raw}"
        if self._submission:
            # A re-submitted workflow is a new set of task attempts: fold
            # the submission ordinal into the fault identity so the plan
            # draws fresh faults instead of replaying the same abort.
            # First submissions (ordinal 0) keep the original token, so
            # runs that never fail are bit-identical to the
            # pre-checkpoint simulator.
            token = f"{token}|resubmit{self._submission}"
        failed_map = failed_reduce = 0
        retried = speculative = stragglers = write_retries = 0
        rescanned = reshuffled = rewritten = 0  # discarded-work bytes
        slow_scan = slow_shuffle = slow_write = 0.0  # unspeculated straggler drag
        backoff_units = 0.0
        slowdown = plan.straggler_slowdown - 1.0

        for index in range(map_tasks):
            failures = plan.task_failures(token, "map", index)
            if failures >= plan.max_attempts:
                self._abort(job, "map", index)
            share = _even_share(map_bytes, map_tasks, index)
            if failures:
                failed_map += failures
                retried += failures
                rescanned += (share + side_bytes) * failures
                backoff_units += float((1 << failures) - 1)
                obs.event(
                    "task-retry", {"kind": "map", "index": index, "failures": failures}
                )
            if plan.is_straggler(token, "map", index):
                stragglers += 1
                obs.event(
                    "straggler",
                    {"kind": "map", "index": index, "speculated": plan.speculation},
                )
                if plan.speculation:
                    # The duplicate re-reads the split (and side tables);
                    # the slow original's work is thrown away.
                    speculative += 1
                    rescanned += share + side_bytes
                else:
                    slow_scan += slowdown * share

        for index in range(reduce_tasks):
            failures = plan.task_failures(token, "reduce", index)
            if failures >= plan.max_attempts:
                self._abort(job, "reduce", index)
            shuffle_share = _even_share(shuffle_bytes, reduce_tasks, index)
            output_share = _even_share(output_raw, reduce_tasks, index)
            if failures:
                failed_reduce += failures
                retried += failures
                reshuffled += shuffle_share * failures
                rewritten += output_share * failures
                backoff_units += float((1 << failures) - 1)
                obs.event(
                    "task-retry",
                    {"kind": "reduce", "index": index, "failures": failures},
                )
            if plan.is_straggler(token, "reduce", index):
                stragglers += 1
                obs.event(
                    "straggler",
                    {"kind": "reduce", "index": index, "speculated": plan.speculation},
                )
                if plan.speculation:
                    speculative += 1
                    reshuffled += shuffle_share
                    rewritten += output_share
                else:
                    slow_shuffle += slowdown * shuffle_share
                    slow_write += slowdown * output_share

        write_failures = plan.write_failures(token)
        if write_failures >= plan.max_attempts:
            self._abort(job, "hdfs-write", 0)
        if write_failures:
            write_retries = write_failures
            rewritten += output_raw * write_failures
            backoff_units += float((1 << write_failures) - 1)
            obs.event("hdfs-write-retry", {"failures": write_failures})

        wasted = rescanned + reshuffled + rewritten
        cost = self.cost_model.recovery_cost(
            rescanned_bytes=rescanned + slow_scan,
            reshuffled_bytes=reshuffled + slow_shuffle,
            rewritten_bytes=rewritten + slow_write,
            backoff_units=backoff_units,
            speculative_tasks=speculative,
        )
        # Fault counters are created only when nonzero, so a faulted
        # run's counter dict is the fault-free dict plus fault entries.
        for name, value in (
            ("failed_map_tasks", failed_map),
            ("failed_reduce_tasks", failed_reduce),
            ("retried_tasks", retried),
            ("speculative_tasks", speculative),
            ("straggler_tasks", stragglers),
            ("wasted_bytes", wasted),
            ("hdfs_write_retries", write_retries),
        ):
            if value:
                counters.increment(name, value)
        return cost, retried, speculative, wasted

    # -- checkpoint / resume -------------------------------------------------------

    def _checkpoint_skip(
        self, job: MapReduceJob, fingerprint: str, counters: Counters | None
    ) -> JobStats | None:
        """Skip *job* if the commit ledger holds a valid checkpoint.

        A hit replays the stored stats and counter deltas, so the
        resumed workflow's accounting matches an uninterrupted run;
        the durable output in HDFS is reused as-is.  Returns ``None``
        (execute normally) on a miss or an invalidated entry.
        """
        entry = self.hdfs.ledger.lookup(job.name, job.output, fingerprint)
        if entry is None:
            return None
        if not self.hdfs.exists(entry.output):
            raise CheckpointError(
                f"commit ledger entry for job {job.name!r} points at "
                f"{entry.output!r}, which no longer exists in HDFS"
            )
        if counters is not None:
            for name, value in entry.counters.items():
                counters.increment(name, value)
        rec = self.recovery_stats
        rec.jobs_skipped += 1
        rec.salvaged_bytes += entry.output_bytes
        rec.salvaged_seconds += entry.cost_seconds
        obs.event(
            "checkpoint-skip",
            {"job": job.name, "output_bytes": entry.output_bytes},
        )
        return self.hdfs.ledger.entry_stats(entry)

    def _checkpoint_commit(
        self,
        job: MapReduceJob,
        fingerprint: str,
        stats: JobStats,
        scratch: Counters,
    ) -> None:
        """Record a successfully completed job in the commit ledger."""
        self.hdfs.ledger.commit(
            LedgerEntry(
                job_name=job.name,
                output=job.output,
                fingerprint=fingerprint,
                output_bytes=stats.output_bytes,
                output_records=stats.output_records,
                cost_seconds=stats.cost_seconds,
                stats=stats,
                counters=scratch.as_dict(),
            )
        )
        obs.event(
            "checkpoint-commit",
            {
                "job": job.name,
                "output_bytes": stats.output_bytes,
                "fingerprint": fingerprint,
            },
        )

    def note_workflow_failure(
        self, error: TaskFailedError, recovery: RecoveryPolicy, failures: int
    ) -> None:
        """Account one workflow-level job abort; authorize a resubmission.

        *failures* is the 1-based count of aborts seen by
        :meth:`run_workflow`'s submission loop, its only caller.  Within
        the
        :attr:`~repro.mapreduce.checkpoint.RecoveryPolicy.max_resubmissions`
        budget this charges the resubmission (driver re-launch plus
        checkpoint validation of the current ledger) and bumps the
        submission ordinal; past the budget it raises
        :class:`~repro.errors.WorkflowAbortedError` carrying the partial
        stats and ledger state.
        """
        rec = self.recovery_stats
        rec.wasted_seconds += error.wasted_seconds
        rec.wasted_bytes += error.wasted_bytes
        ledger = self.hdfs.ledger
        if failures > recovery.max_resubmissions:
            obs.event(
                "workflow-abort",
                {
                    "job": error.job_name,
                    "resubmissions": recovery.max_resubmissions,
                    "committed_jobs": len(ledger),
                },
            )
            raise WorkflowAbortedError(
                error.job_name,
                recovery.max_resubmissions,
                partial_stats=error.partial_stats,
                committed_jobs=ledger.committed_jobs(),
                cause=error,
            ) from error
        rec.resubmissions += 1
        rec.overhead_seconds += self.cost_model.resubmit_cost(
            committed_jobs=len(ledger), committed_bytes=ledger.total_bytes
        )
        self._submission += 1
        obs.event(
            "workflow-resume",
            {
                "job": error.job_name,
                "resubmission": rec.resubmissions,
                "committed_jobs": len(ledger),
            },
        )

    def finalize(self, stats: WorkflowStats) -> WorkflowStats:
        """Attach the runner's salvage accounting to an engine's stats.

        Called once per engine execution, after the last workflow step:
        injects the recovery counters (``workflow_resubmissions``,
        ``jobs_skipped_by_checkpoint``, ``salvaged_bytes``) and pins
        :attr:`WorkflowStats.recovery`.  A no-op without a
        :class:`~repro.mapreduce.checkpoint.RecoveryPolicy`, so
        non-recovered runs keep ``recovery=None`` and an unchanged
        counter bag.
        """
        if self.recovery is None:
            return stats
        rec = self.recovery_stats
        stats.recovery = rec
        for name, value in (
            ("workflow_resubmissions", rec.resubmissions),
            ("jobs_skipped_by_checkpoint", rec.jobs_skipped),
            ("salvaged_bytes", rec.salvaged_bytes),
        ):
            if value:
                stats.counters.increment(name, value)
        return stats

    # -- workflows ----------------------------------------------------------------

    def _submit(self, jobs: Sequence[MapReduceJob], stats: WorkflowStats) -> None:
        for job in jobs:
            stats.jobs.append(self.run_job(job, stats.counters))

    def run_workflow(
        self,
        jobs: Sequence[MapReduceJob],
        stats: WorkflowStats | None = None,
        submit: Callable[[Sequence[MapReduceJob], WorkflowStats], Any] | None = None,
    ) -> WorkflowStats:
        """Run jobs in order; later jobs may read earlier outputs.

        The runner's :attr:`recovery` policy, when set, turns job aborts
        into workflow re-submissions: the failed submission's partial
        stats are attached to the error and discarded, the workflow is
        re-submitted against the same HDFS, ledger-committed jobs are
        skipped, and only the failed suffix recomputes — until the jobs
        all complete or the resubmission budget is exhausted
        (:class:`~repro.errors.WorkflowAbortedError`).

        *stats*, when given, is a continuation: the completed jobs and
        counters are appended to it (engines use this to run a trailing
        job sequence under the same aggregate stats).

        *submit* is one submission of *jobs* into the given stats — by
        default :meth:`run_job` over each.  The sharded driver passes
        its per-shard expansion and the Hive engine its
        recompile-and-run of the query, so this loop is the only place
        a failed submission is re-driven.
        """
        if submit is None:
            submit = self._submit
        recovery = self.recovery
        # Without a policy the one submission accumulates straight into
        # the continuation.  With one, each submission gets fresh stats:
        # skipped jobs replay their checkpointed stats/counters, so a
        # successful submission is complete on its own and a failed one
        # is discarded wholesale (it still travels on the error).
        in_place = recovery is None and stats is not None
        failures = 0
        with _older_heap_set_aside:
            while True:
                attempt = stats if in_place else WorkflowStats()
                try:
                    submit(jobs, attempt)
                except TaskFailedError as error:
                    # Keep the committed prefix's accounting reachable from
                    # the error instead of losing it with the raise.
                    error.partial_stats = attempt
                    if recovery is None:
                        raise
                    failures += 1
                    self.note_workflow_failure(error, recovery, failures)
                    continue
                break
        if stats is None or in_place:
            return attempt
        stats.jobs.extend(attempt.jobs)
        stats.counters.merge(attempt.counters)
        stats.overlap_seconds += attempt.overlap_seconds
        return stats
