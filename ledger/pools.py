"""Choose ``DATA_SEEDS``: generator seeds whose passes do the same work.

    python3 ledger/pools.py WORKLOAD [CANDIDATES]

Runs one untimed pass of the workload on each candidate generator seed
``1..CANDIDATES`` (default 96), takes the exact simulated volumes of the
pass -- records read, bytes read, shuffled and materialized, answer rows,
cost -- and prints the eight seeds whose volumes lie closest to the
candidates' medians (largest relative distance over the volumes), with
that distance.  Paste the result into ``workloads.DATA_SEEDS``.  Only
needed again if a generator's output changes.
"""

from __future__ import annotations

import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

VOLUMES = (
    "sim.input_records", "sim.hdfs_bytes_read", "sim.shuffle_bytes",
    "sim.materialized_bytes", "sim.answer_rows", "sim.cost_s",
)  # fmt: skip
POOL_SIZE = 8


def volumes_of(program, name: str, candidate: int) -> tuple[dict[str, float], object]:
    """Exact volumes of one pass on generator seed *candidate*."""
    serve = name == "serve-mix"
    workloads.DATA_SEEDS[name] = ((candidate, candidate),) if serve else (candidate,)
    workload = workloads.WORKLOAD_CLASSES[name](program, workloads.FULL, 0)
    workload.prepare()
    workload.generate()
    workload.build_oracle()
    outcome = workload.run_pass(workloads.Clock())
    if outcome.failures:
        raise RuntimeError(outcome.failures[0])
    member = (candidate, workload.fault_seed) if serve else candidate
    return {key: outcome.exact[key] for key in VOLUMES}, member


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in workloads.WORKLOADS:
        sys.exit(__doc__)
    name = argv[0]
    candidates = int(argv[1]) if len(argv) > 1 else 96
    program = workloads.load_program()
    measured = {}
    for candidate in range(1, candidates + 1):
        measured[candidate] = volumes_of(program, name, candidate)
        print(candidate, measured[candidate][1], measured[candidate][0], flush=True)
    medians = {
        key: statistics.median(volumes[key] for volumes, _ in measured.values())
        for key in VOLUMES
    }
    distance = {
        candidate: max(abs(volumes[key] / medians[key] - 1.0) for key in VOLUMES)
        for candidate, (volumes, _) in measured.items()
    }
    chosen = sorted(sorted(distance, key=distance.get)[:POOL_SIZE])
    print(f'"{name}": {tuple(measured[c][1] for c in chosen)},')
    print("largest distance from the median volumes:", f"{max(distance[c] for c in chosen):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
