"""A simulated HDFS: named files of records with byte accounting.

Files hold Python records in memory; their "size" is the summed
:func:`repro.mapreduce.cost.estimate_size` of the records.  A capacity
limit can be set to reproduce the paper's MG13 observation, where naive
Hive's doubly-materialized 190GB star-join output exhausted disk space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import HDFSError, HDFSOutOfSpaceError
from repro.mapreduce.checkpoint import CommitLedger
from repro.mapreduce.cost import estimate_total_size


@dataclass
class HDFSFile:
    """A stored file.

    ``size_bytes`` is the on-disk (possibly compressed) size — it drives
    disk usage and the number of input splits.  ``raw_bytes`` is the
    uncompressed data volume — it drives scan/decompression work.  The
    gap between them models the paper's ORC observation: compressed
    tables occupy few splits (few mappers, poor cluster utilization)
    while still costing full decompression work.
    """

    path: str
    records: list[Any]
    size_bytes: int
    raw_bytes: int
    compressed: bool = False

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class HDFS:
    """In-memory distributed filesystem simulation."""

    capacity: int | None = None
    #: Size multiplier applied to files written with ``compressed=True``
    #: (ORC-style aggressive compression; the paper reports 80-96%
    #: reduction, we use a representative 10x factor).
    compression_ratio: float = 0.1
    _files: dict[str, HDFSFile] = field(default_factory=dict)
    #: The workflow commit ledger (checkpoint metadata).  It lives on the
    #: filesystem object because that is its durability unit — like the
    #: ``_SUCCESS`` markers real Hadoop keeps beside committed outputs —
    #: so a re-submitted workflow against the *same* HDFS sees the same
    #: committed state.  Entries are metadata only: they never count
    #: toward ``used_bytes`` or the capacity limit.
    ledger: CommitLedger = field(default_factory=CommitLedger, repr=False)
    #: Running total of stored bytes, maintained by write/delete so that
    #: the per-write capacity check stays O(1) instead of re-summing
    #: every file (quadratic over a workflow's materializations).
    _used_bytes: int = field(default=0, init=False, repr=False)

    def exists(self, path: str) -> bool:
        return path in self._files

    def used_bytes(self) -> int:
        return self._used_bytes

    def write(
        self,
        path: str,
        records: Sequence[Any] | Iterable[Any],
        compressed: bool = False,
        raw_hint: int | None = None,
    ) -> HDFSFile:
        """Create (or replace) a file from *records*.

        *raw_hint*, when given, must equal ``estimate_total_size`` of the
        records; callers that re-write an unchanged derived table (the
        engine pre-processing loaders) pass their once-computed size so
        the write skips re-walking every record.

        Raises :class:`HDFSOutOfSpaceError` when a capacity is set and
        the new file does not fit.
        """
        materialized = list(records)
        raw = raw_hint if raw_hint is not None else estimate_total_size(materialized)
        size = int(raw * self.compression_ratio) if compressed else raw
        existing = self._files.get(path)
        freed = existing.size_bytes if existing else 0
        if self.capacity is not None:
            available = self.capacity - self._used_bytes + freed
            if size > available:
                raise HDFSOutOfSpaceError(size, max(0, available), self.capacity)
        file = HDFSFile(path, materialized, size, raw, compressed)
        self._files[path] = file
        self._used_bytes += size - freed
        return file

    def read(self, path: str) -> HDFSFile:
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path!r}") from None

    def delete(self, path: str) -> None:
        removed = self._files.pop(path, None)
        if removed is not None:
            self._used_bytes -= removed.size_bytes

    def listdir(self, prefix: str = "") -> list[str]:
        """Paths under the directory *prefix*, sorted.

        The prefix is directory-boundary-aware: ``listdir("out")``
        matches ``out`` itself and ``out/part0``, but not ``out-join/
        part0`` or ``output2`` (a raw ``startswith`` matched both).  A
        trailing ``/`` is accepted and equivalent.
        """
        if not prefix:
            return sorted(self._files)
        directory = prefix.rstrip("/")
        marker = directory + "/"
        return sorted(
            p for p in self._files if p == directory or p.startswith(marker)
        )
