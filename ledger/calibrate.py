"""Frozen calibration kernel: turns raw wall seconds into calibrated seconds.

Machine speed on the shared VM drifts by +-10% between processes, so no
wall metric of the ledger is reported raw.  Every timed region is
bracketed by one run of :func:`kernel` -- a fixed amount of pure-Python
dict / tuple / str / sort work, the same operations the simulator spends
its time in, half of it over a table that fits the core's private caches
and half over several MB of small objects -- and reported as

    raw_wall * CAL_REF_S / mean(kernel wall before, kernel wall after)

``CAL_REF_S`` is the kernel's wall time on the machine the first
baseline was taken on; it only fixes the unit (calibrated seconds read
like that machine's seconds).  The kernel and the constant are frozen:
changing either breaks comparability with every committed result, so a
change is a new ledger schema version.
"""

from __future__ import annotations

import gc
import time

#: Kernel wall seconds on the baseline machine (2-core VM, CPython 3.11).
CAL_REF_S = 0.0690

_WORDS = tuple(f"http://ledger.example.org/term/{i:05d}" for i in range(512))
_SUBJECTS = tuple(f"http://ledger.example.org/inst/Product{i}" for i in range(6000))
_PROPERTIES = tuple(f"http://ledger.example.org/vocab/p{i}" for i in range(7))


def _small_working_set() -> int:
    """Hashing, string building and sorting over a table that stays in
    the core's private caches: tracks the core's own speed."""
    table: dict[str, tuple[int, str]] = {}
    total = 0
    for round_ in range(48):
        for index, word in enumerate(_WORDS):
            key = word[-5:] + str(round_ & 3)
            entry = table.get(key)
            if entry is None:
                table[key] = (index, word)
            else:
                total += entry[0] + len(entry[1])
        rows = sorted(table.items(), key=lambda item: (item[1][0] % 7, item[0]))
        total += len(";".join(key for key, _ in rows[:64]))
    return total


def _large_working_set() -> int:
    """Group 42K triple-like tuples by subject, size, sort and aggregate
    them: several MB of small objects, so it also slows down when a
    neighbour takes the shared cache or the memory bus -- which the
    simulator's record-heavy passes feel and the small table does not."""
    groups: dict[str, list[tuple[str, str, str]]] = {}
    for i, subject in enumerate(_SUBJECTS):
        for j, prop in enumerate(_PROPERTIES):
            groups.setdefault(subject, []).append((subject, prop, str((i * 7 + j) % 1013)))
    sized = 0
    keyed = []
    for subject, triples in groups.items():
        sized += sum(len(s) + len(p) + len(o) + 2 for s, p, o in triples)
        keyed.append(((triples[0][2], subject[-4:]), tuple(triples)))
    keyed.sort(key=lambda record: record[0])
    sums: dict[str, list[int]] = {}
    for key, triples in keyed:
        bucket = sums.get(key[0])
        if bucket is None:
            sums[key[0]] = [1, int(triples[1][2])]
        else:
            bucket[0] += 1
            bucket[1] += int(triples[1][2])
    return sized + len(";".join(f"{k}={v[0]}:{v[1]}" for k, v in sorted(sums.items())))


def kernel() -> float:
    """Run the frozen kernel once; return its wall seconds.

    The collector is off inside the kernel: a collection it triggered
    would walk the caller's heap, and the kernel must measure the
    machine, not how much the workload has allocated."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if _small_working_set() + _large_working_set() < 0:  # never true
            raise AssertionError
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Calibrator:
    """Shares kernel runs between consecutive timed regions.

    ``mark()`` runs the kernel and remembers its wall; ``factor()`` runs
    it again and returns ``CAL_REF_S / mean(previous, this)``, leaving
    *this* as the opening bracket of the next region.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def mark(self) -> None:
        self._last = kernel()
        self.samples.append(self._last)

    def factor(self) -> float:
        before = self._last
        self.mark()
        return CAL_REF_S / ((before + self._last) / 2.0)
