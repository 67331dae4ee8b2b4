"""MapReduce job descriptions.

A job names its HDFS inputs and output and supplies the map / fold /
reduce functions.  Map-only jobs (``reducer is None``) emit output
records directly from the mapper; full jobs emit ``(key, value)`` pairs
that are shuffled, grouped, and reduced.

``side_inputs`` model Hive's map-join: the named files are loaded into
every mapper (broadcast), so the job can join without a shuffle.  Jobs
that need side data provide ``mapper_factory`` instead of ``mapper``;
the runner calls it with ``{path: records}`` once the side files are
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import MapReduceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cost imports rdf)
    from repro.mapreduce.cost import ClusterConfig

Mapper = Callable[[Any], Iterable[Any]]
Reducer = Callable[[Any, list[Any]], Iterable[Any]]
Fold = tuple[Callable[[Any], Any], Callable[[Any, Any], None]]
MapperFactory = Callable[[dict[str, list[Any]]], Mapper]


@dataclass
class MapReduceJob:
    """One simulated MapReduce cycle."""

    name: str
    inputs: tuple[str, ...]
    output: str
    mapper: Mapper | None = None
    mapper_factory: MapperFactory | None = None
    reducer: Reducer | None = None
    #: Mapper-side hash aggregation, ``(zero, step)``: the mapper emits
    #: ``(key, item)`` and each map task keeps one partial per key --
    #: ``zero`` of its first item, then ``step(partial, item)`` in place
    #: for every item in emission order -- and ships ``(key, partial)``:
    #: to the shuffle, or, in a map-only job (which must then declare
    #: ``emits_pairs``), as its output records.
    fold: Fold | None = None
    side_inputs: tuple[str, ...] = ()
    output_compressed: bool = False
    #: When True the mapper receives ``(input_path, record)`` pairs so it
    #: can dispatch on which table a record came from (Hive-style
    #: multi-table jobs need provenance; NTGA jobs dispatch on type).
    tag_inputs: bool = False
    #: A map-only mapper whose output is exclusively 2-tuples almost
    #: always means a shuffle mapper miswired into a map-only job (the
    #: reducer was forgotten), so the runner rejects it at the producing
    #: job rather than letting a downstream full job fail confusingly.
    #: Set True for the rare map-only job whose *records* really are
    #: 2-tuples.
    emits_pairs: bool = False
    #: Free-form planner annotations (operator names, phase labels).
    labels: tuple[str, ...] = field(default_factory=tuple)
    #: Which intermediate-record representation the planner chose for
    #: this cycle ("flat" or "factorized") — an annotation for traces
    #: and explain output; the mapper/reducer closures already embody it.
    representation: str = "flat"
    #: Bytes this job receives across a shard boundary (set by the
    #: sharded assembly driver on per-owner reduce jobs); priced through
    #: the CostModel's ``exchange_rate`` and surfaced as its own phase
    #: in the cost decomposition.  Zero on unsharded runs.
    exchange_bytes: int = 0
    #: The byte volume of this job's shuffle, when its submitter has
    #: already sized every pair the mapper will emit (the sharded
    #: driver's assemble jobs re-emit envelopes it sized at the wrap).
    #: Must equal what the runner would compute; consumed like
    #: ``HDFS.write``'s ``raw_hint`` and ignored with the caches off,
    #: where the runner recomputes the volume -- the tests' reference.
    shuffle_bytes_hint: int | None = None
    #: Per-job cluster override: sharded execution runs each shard's
    #: jobs on a slice of the global cluster (``nodes // shards``), so
    #: per-shard parallelism — and therefore cost — reflects the
    #: resources one worker actually owns.  ``None`` uses the runner's
    #: cluster.
    cluster: "ClusterConfig | None" = None
    #: What leaves this cycle, as its builder states it at plan time:
    #: ``leaving(estimator, upstream, map_tasks)`` returns the estimated
    #: shuffle bytes, output rows / bytes and distinct reduce keys (see
    #: :class:`repro.ntga.physical.CycleVolumes`), given a cardinality
    #: estimator, ``{path: volumes}`` of the job outputs it reads and
    #: its map-task count.  Closes over plan-time facts only.  ``None``:
    #: the builder cannot say before the job runs (the Hive executor
    #: sizes its joins from tables it has just materialized), so nothing
    #: prices it.
    leaving: Callable[[Any, dict, int], Any] | None = None
    #: The cost planner's estimate of this cycle, left here by whoever
    #: priced the job list (:func:`repro.plan.enumerator.price_jobs`);
    #: copied onto the executed :class:`JobStats`, and by the sharded
    #: driver onto every part it derives from this job.
    estimate: Any = None

    def __post_init__(self) -> None:
        if (self.mapper is None) == (self.mapper_factory is None):
            raise MapReduceError(
                f"job {self.name!r} must define exactly one of mapper/mapper_factory"
            )
        if self.side_inputs and self.mapper_factory is None:
            raise MapReduceError(
                f"job {self.name!r} declares side inputs but no mapper_factory"
            )
        if self.fold is not None and self.reducer is None and not self.emits_pairs:
            # Like pair-shaped output: a forgotten reducer, unless declared.
            raise MapReduceError(f"map-only job {self.name!r} folds but emits_pairs is unset")
        if not self.inputs:
            raise MapReduceError(f"job {self.name!r} needs at least one input")

    @property
    def is_map_only(self) -> bool:
        return self.reducer is None

    def resolve_mapper(self, side_data: dict[str, list[Any]]) -> Mapper:
        if self.mapper is not None:
            return self.mapper
        assert self.mapper_factory is not None
        return self.mapper_factory(side_data)


@dataclass
class JobStats:
    """Measured outcome of one simulated job."""

    name: str
    map_only: bool
    map_tasks: int
    reduce_tasks: int
    input_bytes: int
    side_input_bytes: int
    shuffle_bytes: int
    output_bytes: int
    input_records: int
    output_records: int
    cost_seconds: float
    labels: tuple[str, ...] = ()
    #: Fault-recovery outcome (all zero without a FaultPlan): task
    #: re-attempts, speculative duplicates launched, and bytes of
    #: discarded work (re-scanned input, re-fetched shuffle output,
    #: re-written output).
    retried_tasks: int = 0
    speculative_tasks: int = 0
    wasted_bytes: int = 0
    #: Bytes received across a shard boundary (zero off the sharded path).
    exchange_bytes: int = 0
    #: The estimate the executed job carried (``MapReduceJob.estimate``):
    #: ``None`` for every job nobody priced -- all of rule mode and Hive.
    estimate: Any = None

    def describe(self) -> str:
        kind = "map-only" if self.map_only else "map-reduce"
        line = (
            f"{self.name} [{kind}] in={self.input_bytes}B shuffle={self.shuffle_bytes}B "
            f"out={self.output_bytes}B cost={self.cost_seconds:.2f}s"
        )
        if self.exchange_bytes:
            line += f" exchange={self.exchange_bytes}B"
        if self.retried_tasks or self.speculative_tasks:
            line += (
                f" retries={self.retried_tasks} speculative={self.speculative_tasks} "
                f"wasted={self.wasted_bytes}B"
            )
        return line
