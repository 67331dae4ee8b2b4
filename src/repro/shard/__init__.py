"""Sharded, partition-aware distributed execution.

The paper's simulator runs every NTGA workflow on one cluster over one
shared graph.  This package scales it out, following the
partial-evaluation-and-assembly model (Peng et al., *Accelerating
Partial Evaluation in Distributed SPARQL Query Evaluation*; Gurajada &
Theobald, *Distributed Processing of Generalized Graph-Pattern
Queries*):

* :mod:`repro.shard.partition` splits the RDF graph's subject
  triplegroups across N simulated workers under three strategies —
  hash-by-subject, subject-locality ranges, and a greedy min-edge-cut
  heuristic;
* :mod:`repro.shard.execution` runs each logical NTGA job as N
  per-shard *partial* jobs over local data, then assembles the
  cross-partition state through a priced *exchange* step (bytes that
  cross a shard boundary ride the CostModel's ``exchange_rate``) and
  N per-owner reduce jobs;
* :mod:`repro.shard.ab` is the ``repro bench <qids> --shards`` A/B
  harness comparing the partitioners' cross-shard traffic
  (``repro-shard-ab/v1``, pinned as ``shard-ab-mg-4.json``).

Sharded answers are bit-identical to single-cluster runs — every
record carries a deterministic order tag, so reassembled files
reproduce the unsharded record sequence exactly.  The partition
invariance is enforced by ``tests/integration/test_composition_matrix.py``
over every catalog query, partitioner, and shard count, and for merged
batches by ``tests/integration/test_shard_differential.py``.
"""

from repro.shard.partition import (
    PARTITIONERS,
    Partition,
    build_partition,
    stable_key_hash,
    validate_partitioner,
)

__all__ = [
    "PARTITIONERS",
    "Partition",
    "build_partition",
    "stable_key_hash",
    "validate_partitioner",
]
