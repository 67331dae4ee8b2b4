"""Workflow-level checkpoint/resume for the MapReduce simulator.

PR 2's fault layer models Hadoop's *task*-level recovery (retry,
backoff, speculation) but treated a job abort as fatal: the whole
workflow's committed outputs were thrown away.  Real Hadoop pipelines
restart from the last durable HDFS output — the driver re-submits the
workflow and every job whose output already exists is skipped.  That is
exactly where the paper's argument about workflow *length* matters most
for resilience: a 9-13 cycle naive-Hive plan re-validates (and, on a
mid-flight failure, loses) far more materialized state per failure than
a 3-4 cycle RAPIDAnalytics plan.

This module provides the durable pieces:

* :class:`CommitLedger` — the simulated-HDFS commit ledger.  Each
  successfully completed job records a :class:`LedgerEntry` keyed by
  the job's identity (name + output path) and an *input fingerprint*;
  a resubmitted workflow consults the ledger and skips any job whose
  entry is still valid.  A changed upstream output changes the
  fingerprint, invalidating the downstream checkpoint (the entry is
  dropped and the job recomputes).
* :class:`RecoveryPolicy` — the workflow-retry budget: how many times
  the driver re-submits before raising a typed
  :class:`~repro.errors.WorkflowAbortedError`.
* :class:`RecoveryStats` — the salvage accounting: resubmissions,
  checkpoint-skipped jobs, salvaged vs. wasted bytes/seconds, and the
  charged resubmission overhead.

Determinism contract
--------------------

Everything here is a pure function of simulated state: fingerprints
hash the byte/record accounting of the input files, never wall time or
object identity, so a resumed run recomputes exactly the failed suffix
and its results are bit-identical to the fault-free run (the chaos soak
harness in :mod:`repro.bench.chaos` pins this across a seed matrix).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hdfs ↔ checkpoint)
    from repro.mapreduce.hdfs import HDFS
    from repro.mapreduce.job import JobStats, MapReduceJob

#: Counters owned by the checkpoint/resume layer, in the spirit of
#: :data:`repro.mapreduce.faults.FAULT_COUNTERS`: everything *not* in
#: the union of the two sets is a base counter, required to stay
#: bit-identical between a fault-free run and a faulted-then-resumed
#: run (the chaos soak checks this per run).
RECOVERY_COUNTERS = frozenset(
    {
        "workflow_resubmissions",
        "jobs_skipped_by_checkpoint",
        "salvaged_bytes",
    }
)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Workflow-level recovery knobs.

    ``max_resubmissions`` bounds how many times a failing workflow is
    re-submitted (Hadoop drivers and workflow managers like Oozie retry
    a failed action a configurable number of times).  Exhausting the
    budget raises :class:`~repro.errors.WorkflowAbortedError` carrying
    the partial stats and the ledger state.
    """

    max_resubmissions: int = 8

    def __post_init__(self) -> None:
        if self.max_resubmissions < 1:
            raise CheckpointError(
                f"recovery policy max_resubmissions must be >= 1: "
                f"{self.max_resubmissions!r}"
            )


def fingerprint_inputs(hdfs: "HDFS", job: "MapReduceJob") -> str:
    """A deterministic digest of everything the job will read.

    Folds each input and side-input path together with its stored size,
    raw (uncompressed) size, and record count.  Any upstream change —
    a re-written file, a different record count, a compression flip —
    produces a different fingerprint, which invalidates the downstream
    job's ledger entry and forces a recompute.  Missing inputs
    fingerprint as absent rather than raising, so the lookup (not the
    fingerprint) decides how to handle them.
    """
    digest = hashlib.blake2b(digest_size=16)
    for kind, paths in (("in", job.inputs), ("side", job.side_inputs)):
        for path in paths:
            if hdfs.exists(path):
                file = hdfs.read(path)
                token = (
                    f"{kind}:{path}:{file.size_bytes}:{file.raw_bytes}:"
                    f"{len(file.records)}:{int(file.compressed)}"
                )
            else:
                token = f"{kind}:{path}:absent"
            digest.update(token.encode("utf-8"))
            digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class LedgerEntry:
    """One committed job in the durable ledger."""

    job_name: str
    output: str
    fingerprint: str
    output_bytes: int
    output_records: int
    cost_seconds: float
    stats: "JobStats"
    #: The job's counter contributions (base + fault counters), replayed
    #: into a resumed submission's counters when the job is skipped so
    #: the final counter bag is identical to an uninterrupted run.
    counters: dict[str, int] = field(default_factory=dict)


class CommitLedger:
    """Durable record of committed job outputs in simulated HDFS.

    The ledger lives on the :class:`~repro.mapreduce.hdfs.HDFS`
    instance — its durability unit is the filesystem, exactly like the
    ``_SUCCESS`` markers and job-history files a real Hadoop deployment
    keeps beside committed output directories.  Entries are keyed by
    job identity ``(name, output path)``; a lookup additionally checks
    the caller's input fingerprint and drops (invalidates) entries that
    no longer match, so stale checkpoints can never be resumed from.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], LedgerEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._entries.values())

    def commit(self, entry: LedgerEntry) -> None:
        self._entries[(entry.job_name, entry.output)] = entry

    def lookup(
        self, job_name: str, output: str, fingerprint: str
    ) -> LedgerEntry | None:
        """The valid entry for this job, or None.

        An entry whose fingerprint does not match the current inputs is
        *invalidated* (removed) — the upstream data changed, so the
        checkpointed output must not be reused.
        """
        key = (job_name, output)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.fingerprint != fingerprint:
            del self._entries[key]
            return None
        return entry

    def committed_jobs(self) -> tuple[str, ...]:
        return tuple(entry.job_name for entry in self._entries.values())

    @property
    def total_bytes(self) -> int:
        return sum(entry.output_bytes for entry in self._entries.values())

    def entry_stats(self, entry: LedgerEntry) -> "JobStats":
        """A defensive copy of the stored stats for re-appending."""
        return replace(entry.stats)


@dataclass
class RecoveryStats:
    """Salvage accounting for one recovered engine execution.

    ``salvaged_*`` is the committed work a resubmission did *not* have
    to redo thanks to the ledger; ``wasted_*`` is the aborted attempts'
    discarded work; ``overhead_seconds`` is the charged resubmission
    cost (driver re-launch + checkpoint validation/re-read).  The
    workflow's total simulated cost grows by :attr:`extra_seconds`.
    """

    resubmissions: int = 0
    jobs_skipped: int = 0
    salvaged_bytes: int = 0
    salvaged_seconds: float = 0.0
    wasted_seconds: float = 0.0
    wasted_bytes: int = 0
    overhead_seconds: float = 0.0

    @property
    def extra_seconds(self) -> float:
        """Extra simulated seconds the recovery added to the workflow."""
        return self.wasted_seconds + self.overhead_seconds

    def as_dict(self) -> dict[str, object]:
        """Deterministic report form (floats rounded for stable JSON)."""
        return {
            "resubmissions": self.resubmissions,
            "jobs_skipped": self.jobs_skipped,
            "salvaged_bytes": self.salvaged_bytes,
            "salvaged_seconds": round(self.salvaged_seconds, 6),
            "wasted_seconds": round(self.wasted_seconds, 6),
            "wasted_bytes": self.wasted_bytes,
            "overhead_seconds": round(self.overhead_seconds, 6),
        }

    def describe(self) -> str:
        return (
            f"recovery: {self.resubmissions} resubmission(s), "
            f"{self.jobs_skipped} job(s) skipped by checkpoint, "
            f"salvaged={self.salvaged_bytes}B/{self.salvaged_seconds:.2f}s, "
            f"wasted={self.wasted_bytes}B/{self.wasted_seconds:.2f}s, "
            f"overhead={self.overhead_seconds:.2f}s"
        )
