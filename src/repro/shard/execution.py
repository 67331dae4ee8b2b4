"""Partial evaluation and assembly: sharded execution of NTGA plans.

The single-cluster engine runs one :class:`~repro.mapreduce.job.MapReduceJob`
per NTGA cycle.  Under ``EngineConfig(shards=N)`` this driver expands
each *logical* job into a per-shard job tree, following the
partial-evaluation-and-assembly model:

* a **full** logical job (TG_AlphaJoin, TG_AgJ) becomes N map-only
  *partial* jobs — each shard runs the logical mapper over its local
  part of every input, and a folded job folds each of its map tasks
  exactly as the single cluster does — then a driver-side **exchange**
  routes the tagged ``(key, value)`` pairs to the shard that owns each
  key (graph subjects stay with their partition; other keys route by
  stable hash), then N per-owner *assemble* jobs run the logical
  reducer over exactly the key range they own;
* a **map-only** logical job (TG_Join) broadcasts its gathered side
  inputs and runs the logical mapper per shard over the stream input's
  local part.

**Bit-identity.**  Every sharded record travels in a
:class:`ShardRecord` envelope carrying a deterministic *order tag*:
the global position its payload would occupy in the unsharded run's
file or emission sequence.  Merging any logical file's parts by tag
reproduces the single-cluster record sequence exactly, and the
per-owner reducer sorts its value list by tag, so value-order-
sensitive reducers (the α-join cross product) see precisely the
unsharded value order.  A folded job's partial (one per key and map
task, as the paper's mappers ship) is tagged with its first emission;
aggregate merges are exact and split-free, so the merged state is the
unsharded one.

**Pricing.**  Bytes whose producing shard differs from their owner are
cross-shard traffic: the assemble job carries them as
``MapReduceJob.exchange_bytes``, priced by the CostModel's
``exchange_rate`` and decomposed as the ``exchange`` phase.  Per-shard
jobs run on a ``nodes // N`` slice of the cluster, and each expansion
group credits ``sum(costs) - max(costs)`` back as overlap (shards run
concurrently; only the slowest is on the critical path).

**Accounting.**  Every simulated byte is what ``estimate_size`` of the
decoded record says, but each shipped value is sized once: its envelope
pins that size and its tag's, and the exchange derives from the pins
the part-file bytes and the assemble job's ``shuffle_bytes_hint``.  The
store's parts are a cached layout of ``(graph.version, strategy,
shards)`` written with ``raw_hint``.  With the caches off
(``reference_mode()``) everything is recomputed.

**Recovery.**  A sharded run is one submission to
:meth:`~repro.mapreduce.runner.MapReduceRunner.run_workflow`'s retry
loop: per-shard jobs checkpoint-commit individually, exchange files are
re-created deterministically (stable fingerprints), so a crash inside
one shard's partial evaluation resumes without re-running other shards'
committed jobs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable

from repro import ambient, obs
from repro.core.results import EngineConfig
from repro.errors import ShardError
from repro.mapreduce import cost
from repro.mapreduce.cost import ClusterConfig
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner, WorkflowStats, _sort_key
from repro.ntga.physical import AggRow, TripleGroupStore, empty_group_rows
from repro.ntga.planner import NTGAPlan
from repro.rdf.graph import Graph
from repro.shard.partition import Partition, build_partition

#: Fixed per-record envelope charge (order tag + framing) on top of the
#: payload size — small, so part files and exchange volumes track the
#: logical data they carry.
_ENVELOPE_OVERHEAD = 12


class ShardRecord:
    """One sharded record: a payload plus its global order tag.

    Immutable by convention.  Hand-slotted, not a dataclass: a sharded
    pass wraps every record it moves, and whoever wraps one usually
    knows its sizes already, so the constructor takes the pins.

    Tags are tuples built so that sorting a logical file's records by
    tag across all parts reproduces the unsharded file's record order:
    EC loads tag by position, partial maps tag by ``(input slot,
    producer tag, emission index)`` (a folded partial, by that of its
    first contributing emission), assemble reducers tag by
    ``(0, shuffle sort key, emission index)`` (matching the runner's
    sorted-key reduce order), and injected default rows tag ``(1, ...)``
    so they sort after every reduced record — the unsharded
    append-at-end.
    """

    __slots__ = ("order", "payload", "_size", "_order_size")

    def __init__(
        self,
        order: tuple,
        payload: Any,
        size: int | None = None,
        order_size: int | None = None,
    ):
        self.order = order
        self.payload = payload
        #: File-size pin: ``estimate_size(payload) + _ENVELOPE_OVERHEAD``
        #: (hidden from repr and equality like the term caches).
        self._size = size
        #: Order-tag size pin: ``estimate_size(order)``.
        self._order_size = order_size

    def __repr__(self) -> str:
        return f"ShardRecord(order={self.order!r}, payload={self.payload!r})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not ShardRecord:
            return NotImplemented
        return self.order == other.order and self.payload == other.payload

    def estimated_size(self) -> int:
        """Payload size plus the envelope charge, sized once -- by the
        wrapper that built the envelope, else on first call -- and pinned
        like :class:`~repro.ntga.physical.AggRow`: the same envelope is
        sized for its partial-output write, the exchange's cross-shard
        tally and its exchange-file write.  The pin is sound because an
        envelope's payload is never mutated once sized -- a partial job's
        fold steps a partial only before the job writes it, and exchange
        records must survive a re-submission unchanged, which is why
        TG_AgJ's reducer merges accumulator state into a copy.
        """
        if not cost.SIZE_CACHE_ENABLED:
            return cost.estimate_size(self.payload) + _ENVELOPE_OVERHEAD
        size = self._size
        if size is None:
            size = self._size = cost.estimate_size(self.payload) + _ENVELOPE_OVERHEAD
        return size

    def order_size(self) -> int:
        """The order tag's size, pinned: a store part's is read by every
        query's partial mapper, which pins each emission's tag size from
        it."""
        size = self._order_size
        if size is None or not cost.SIZE_CACHE_ENABLED:
            size = self._order_size = cost.estimate_size(self.order)
        return size


def shard_cluster(cluster: ClusterConfig, shards: int) -> ClusterConfig:
    """One worker's slice of the global cluster: per-shard jobs run on
    ``nodes // shards`` nodes (at least one), same per-node slots."""
    if shards <= 1:
        return cluster
    return replace(cluster, nodes=max(1, cluster.nodes // shards))


def _part(path: str, shard: int) -> str:
    """Shard *shard*'s part of logical file *path*."""
    return f"{path}@s{shard}"


def _partial_out(path: str, shard: int) -> str:
    """Partial-job output of shard *shard* for the job writing *path*."""
    return f"{path}@m{shard}"


def _exchange_file(path: str, shard: int) -> str:
    """Post-exchange input owned by shard *shard* for the job writing *path*."""
    return f"{path}@x{shard}"


class ShardedExecutor:
    """Drives one engine execution's logical jobs across N shards."""

    def __init__(
        self,
        runner: MapReduceRunner,
        store: TripleGroupStore,
        graph: Graph,
        config: EngineConfig,
    ):
        self.runner = runner
        self.hdfs: HDFS = runner.hdfs
        self.shards = config.shards
        self.partition: Partition = build_partition(
            graph, ambient.PARTITIONER.resolve(config.partitioner), config.shards
        )
        self.cluster = shard_cluster(config.cluster, config.shards)
        self._write_store_parts(store)

    # -- data placement --------------------------------------------------------

    def _write_store_parts(self, store: TripleGroupStore) -> None:
        """Distribute the equivalence-class files: each shard's part
        holds the triplegroups whose subject it owns, tagged with the
        group's position in the logical EC file.

        The parts are a derived layout of ``(graph.version, strategy,
        shards)``: built and sized once, kept on the partition (whose
        lifetime is the graph's) and written with ``raw_hint`` by every
        later query, which shares the envelopes.  With the caches off
        they are rebuilt, and so re-sized, per query.
        """
        layout = self.partition.store_parts if cost.SIZE_CACHE_ENABLED else {}
        paths = sorted(store.paths_by_class.values())
        if store.empty_path:
            paths.append(store.empty_path)
        for path in paths:
            entry = layout.get(path)
            if entry is None:
                entry = layout[path] = self._store_parts(self.hdfs.read(path).records)
            parts, totals = entry
            for shard in range(self.shards):
                self.hdfs.write(_part(path, shard), parts[shard], raw_hint=totals[shard])

    def _store_parts(
        self, groups: list[Any]
    ) -> tuple[list[list[ShardRecord]], list[int]]:
        """One EC file's per-shard envelope lists and their byte totals."""
        assignment = self.partition.assignment
        parts: list[list[ShardRecord]] = [[] for _ in range(self.shards)]
        totals = [0] * self.shards
        for position, group in enumerate(groups):
            shard = assignment[group.subject]
            size = cost.estimate_size(group) + _ENVELOPE_OVERHEAD
            parts[shard].append(ShardRecord((position,), group, size))
            totals[shard] += size
        return parts, totals

    def gather(self, path: str, compressed: bool = False) -> None:
        """Merge a logical file's parts back into HDFS at *path* itself,
        in order-tag order — the reconstruction of the unsharded file."""
        merged: list[ShardRecord] = []
        enveloped_bytes = 0
        for shard in range(self.shards):
            part = self.hdfs.read(_part(path, shard))
            merged.extend(part.records)
            enveloped_bytes += part.raw_bytes
        merged.sort(key=lambda record: record.order)
        # The parts were sized when written: the payloads alone weigh
        # that less one envelope charge per record.
        self.hdfs.write(
            path,
            [record.payload for record in merged],
            compressed,
            raw_hint=enveloped_bytes - _ENVELOPE_OVERHEAD * len(merged),
        )

    def inject_defaults(self, plan: NTGAPlan) -> None:
        """Sharded :func:`~repro.ntga.planner.inject_default_rows`:
        missing empty-group defaults (computed over *all* parts) are
        appended to shard 0's part with ``(1, ...)`` tags, which sort
        after every reduced record — exactly the unsharded append."""
        for composite, path in plan.defaults_by_plan:
            if not self.hdfs.exists(_part(path, 0)):
                continue
            present: set[int] = set()
            for shard in range(self.shards):
                for record in self.hdfs.read(_part(path, shard)).records:
                    if isinstance(record.payload, AggRow):
                        present.add(record.payload.subquery_id)
            missing = [
                row
                for row in empty_group_rows(composite)
                if row.subquery_id not in present
            ]
            if missing:
                part0 = self.hdfs.read(_part(path, 0)).records
                self.hdfs.write(
                    _part(path, 0),
                    list(part0)
                    + [
                        ShardRecord((1, index, 0), row)
                        for index, row in enumerate(missing)
                    ],
                )

    # -- job expansion ---------------------------------------------------------

    def _check_supported(self, job: MapReduceJob) -> None:
        if job.tag_inputs:
            raise ShardError(
                f"job {job.name!r}: tag_inputs jobs are not shardable"
            )
        if not job.is_map_only and (job.side_inputs or job.mapper is None):
            raise ShardError(
                f"job {job.name!r}: full jobs with side inputs are not shardable"
            )

    def _partial_jobs(self, job: MapReduceJob) -> list[MapReduceJob]:
        """N map-only jobs running the logical mapper over local parts,
        shipping ``(key, envelope)`` pairs: one per emission, or with a
        fold one partial per key and map task (folded by the runner)."""
        # Part path -> logical input slot, for every shard's parts: built
        # once per job, so no record re-parses its path (and a logical
        # path that itself contains "@s" cannot be mis-slotted).
        slot_of = {
            _part(path, shard): slot
            for slot, path in enumerate(job.inputs)
            for shard in range(self.shards)
        }
        logical_mapper = job.mapper
        fold = None
        # An envelope's tag (slot, producer, index) weighs 8 + 8 +
        # |producer| + 8, with |producer| pinned on the producer.
        if job.fold is None:

            def partial_mapper(tagged: tuple[str, ShardRecord]) -> list[tuple[Any, ShardRecord]]:
                path, record = tagged
                slot, producer = slot_of[path], record.order
                tag_size = 24 + record.order_size()
                return [
                    (key, ShardRecord((slot, producer, index), value, None, tag_size))
                    for index, (key, value) in enumerate(logical_mapper(record.payload))
                ]

        else:
            zero, step = job.fold

            def partial_mapper(tagged: tuple[str, ShardRecord]) -> Iterable[tuple[Any, tuple]]:
                # Each item carries its tag's makings, for its key's first.
                path, record = tagged
                origin = (slot_of[path], record.order, 24 + record.order_size())
                for index, (key, item) in enumerate(logical_mapper(record.payload)):
                    yield key, (origin, index, item)

            def partial_zero(tagged: tuple) -> ShardRecord:
                (slot, producer, tag_size), index, item = tagged
                return ShardRecord((slot, producer, index), zero(item), None, tag_size)

            def partial_step(partial: ShardRecord, tagged: tuple) -> None:
                step(partial.payload, tagged[2])

            fold = (partial_zero, partial_step)

        return [
            MapReduceJob(
                name=f"{job.name}@s{shard}",
                inputs=tuple(_part(path, shard) for path in job.inputs),
                output=_partial_out(job.output, shard),
                mapper=partial_mapper,
                fold=fold,
                tag_inputs=True,
                emits_pairs=True,
                labels=job.labels + (f"shard:{shard}", "partial"),
                representation=job.representation,
                cluster=self.cluster,
                estimate=job.estimate,
            )
            for shard in range(self.shards)
        ]

    def _exchange(self, job: MapReduceJob) -> tuple[list[int], list[int]]:
        """Route every partial pair to its key's owner shard.

        Writes one exchange file per owner (sorted by order tag, so the
        file bytes are a pure function of the partial outputs — stable
        checkpoint fingerprints across re-submissions) and returns, per
        owner, the *cross-shard* byte volume (the priced communication)
        and the volume its assemble job will shuffle.
        """
        owner_for_key = self.partition.owner_for_key
        estimate_size = cost.estimate_size
        # Many pairs share a key (every partial of one group): each
        # distinct key is routed -- for non-subjects, hashed -- and sized once.
        routes: dict[Any, tuple[int, int]] = {}
        per_owner: list[list[tuple[Any, ShardRecord]]] = [[] for _ in range(self.shards)]
        inbound_cross = [0] * self.shards
        shuffle_bytes = [0] * self.shards
        stored_bytes = [0] * self.shards
        cross_records = 0
        for shard in range(self.shards):
            for pair in self.hdfs.read(_partial_out(job.output, shard)).records:
                key, record = pair
                route = routes.get(key)
                if route is None:
                    route = routes[key] = (owner_for_key(key), estimate_size(key))
                owner, key_size = route
                per_owner[owner].append(pair)
                # Stored as the pair (key, envelope); shuffled by the
                # assemble job as (key, (order, value)).
                size = record.estimated_size()
                stored = 8 + key_size + size
                stored_bytes[owner] += stored
                shuffle_bytes[owner] += (
                    key_size + 8 + record.order_size() + size - _ENVELOPE_OVERHEAD
                )
                if owner != shard:
                    inbound_cross[owner] += stored
                    cross_records += 1
        for shard in range(self.shards):
            per_owner[shard].sort(key=lambda pair: pair[1].order)
            self.hdfs.write(
                _exchange_file(job.output, shard), per_owner[shard], raw_hint=stored_bytes[shard]
            )
        if ambient.tracer is not None:
            obs.event(
                "shard-exchange",
                {
                    "job": job.name,
                    "cross_shard_bytes": sum(inbound_cross),
                    "cross_shard_records": cross_records,
                },
            )
        return inbound_cross, shuffle_bytes

    def _assemble_jobs(
        self,
        job: MapReduceJob,
        inbound_cross: list[int],
        shuffle_bytes: list[int] | None = None,
    ) -> list[MapReduceJob]:
        """N full jobs running the logical reducer over owned keys;
        *shuffle_bytes* is the exchange's per-owner shuffle volume, when
        the exchange was just run."""
        logical_reducer = job.reducer
        assert logical_reducer is not None

        def assemble_mapper(
            pair: tuple[Any, ShardRecord],
        ) -> tuple[tuple[Any, tuple[tuple, Any]]]:
            key, record = pair
            return ((key, (record.order, record.payload)),)

        def assemble_reducer(key: Any, tagged: list) -> list[ShardRecord]:
            # Tag order across shards is the unsharded emission order: an
            # unfolded job's reducer sees exactly the single-cluster value
            # list, a folded one merges its partials in that order.
            tagged = sorted(tagged, key=lambda item: item[0])
            # The values are the stored exchange records' own payloads, and
            # those must survive a re-submission un-mutated: logical
            # reducers never merge into their inputs (TG_AgJ copies first).
            values = [value for _, value in tagged]
            key_tag = _sort_key(key)
            return [
                ShardRecord((0, key_tag, index), emission)
                for index, emission in enumerate(logical_reducer(key, values))
            ]

        return [
            MapReduceJob(
                name=f"{job.name}@r{shard}",
                inputs=(_exchange_file(job.output, shard),),
                output=_part(job.output, shard),
                mapper=assemble_mapper,
                reducer=assemble_reducer,
                labels=job.labels + (f"shard:{shard}", "assemble"),
                representation=job.representation,
                exchange_bytes=inbound_cross[shard],
                shuffle_bytes_hint=None if shuffle_bytes is None else shuffle_bytes[shard],
                cluster=self.cluster,
                estimate=job.estimate,
            )
            for shard in range(self.shards)
        ]

    def _broadcast_jobs(self, job: MapReduceJob) -> list[MapReduceJob]:
        """N map-only jobs for a logical map-only (TG_Join) cycle: side
        inputs are gathered to their logical paths (the broadcast — each
        shard's job re-reads them at full size, charging replication),
        the stream input runs from local parts."""
        for path in dict.fromkeys(job.side_inputs):
            self.gather(path)
        if len(job.inputs) != 1:
            raise ShardError(
                f"job {job.name!r}: sharded map-only jobs stream one input"
            )
        stream = job.inputs[0]

        def factory(side_data: dict[str, list[Any]]):
            logical_mapper = job.resolve_mapper(side_data)

            def partial_mapper(record: ShardRecord) -> list[ShardRecord]:
                order = record.order
                return [
                    ShardRecord((order, index), emission)
                    for index, emission in enumerate(logical_mapper(record.payload))
                ]

            return partial_mapper

        return [
            MapReduceJob(
                name=f"{job.name}@s{shard}",
                inputs=(_part(stream, shard),),
                output=_part(job.output, shard),
                mapper_factory=factory,
                side_inputs=job.side_inputs,
                labels=job.labels + (f"shard:{shard}", "partial"),
                representation=job.representation,
                cluster=self.cluster,
                estimate=job.estimate,
            )
            for shard in range(self.shards)
        ]

    # -- execution -------------------------------------------------------------

    def _run_group(self, jobs: list[MapReduceJob], stats: WorkflowStats) -> None:
        """Run one expansion group (the N per-shard jobs of one logical
        phase) and credit the concurrency overlap: the group's jobs run
        on disjoint workers, so only the slowest is on the critical path."""
        costs = []
        for job in jobs:
            job_stats = self.runner.run_job(job, stats.counters)
            stats.jobs.append(job_stats)
            costs.append(job_stats.cost_seconds)
        if len(costs) > 1:
            stats.overlap_seconds += cost.fold_seconds(costs) - max(costs)

    def _run_once(self, jobs: list[MapReduceJob], stats: WorkflowStats) -> None:
        for job in jobs:
            self._check_supported(job)
            if job.is_map_only:
                self._run_group(self._broadcast_jobs(job), stats)
                continue
            self._run_group(self._partial_jobs(job), stats)
            self._run_group(self._assemble_jobs(job, *self._exchange(job)), stats)

    def run(
        self,
        jobs: list[MapReduceJob],
        stats: WorkflowStats | None = None,
    ) -> WorkflowStats:
        """Run logical *jobs* sharded.  This is
        :meth:`~repro.mapreduce.runner.MapReduceRunner.run_workflow`
        with the per-shard expansion as the submission, so recovery and
        the *stats* continuation are the runner's, not a second loop."""
        return self.runner.run_workflow(jobs, stats=stats, submit=self._run_once)
