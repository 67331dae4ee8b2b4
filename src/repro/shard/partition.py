"""Graph partitioning strategies for sharded execution.

A partition assigns every subject triplegroup (and with it all triples
sharing that subject) to exactly one of N shards.  Subject granularity
matters: the NTGA star operators (σ^γopt, TG_AgJ's detail scan) are
per-subject-group computations, so any subject-complete partition lets
the star phase run *locally* on each shard with no communication —
only inter-star joins cross shard boundaries.

Three strategies, in increasing awareness of the graph's join
structure:

* ``hash`` — BLAKE2b of the subject's N-Triples form modulo N.  The
  baseline every distributed store starts with: perfectly balanced in
  expectation, oblivious to locality.
* ``locality`` — subjects ordered by :func:`~repro.rdf.terms.term_sort_key`
  and cut into N contiguous ranges balanced by estimated bytes.
  Datasets mint related subjects under adjacent IRIs, so range
  partitioning keeps neighborhoods together without looking at edges.
* ``min-edge-cut`` — a greedy METIS-flavored heuristic over the
  subject-to-subject edge graph (a triple whose object is itself a
  subject is an edge): place high-degree vertices first, each on the
  shard holding most of its already-placed neighbors, under a relaxed
  balance capacity.

All three are pure functions of the graph's deterministic triple order
— no builtin ``hash()``, no set-iteration order — so a partition is
byte-identical across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.ambient import PARTITIONER
from repro.errors import ShardError
from repro.ntga.triplegroup import TripleGroup, subject_groups
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, term_sort_key

#: Strategy names, in the order the A/B harness reports them (also the
#: expected cross-shard-byte ordering on MG-class queries: hash worst,
#: min-edge-cut best).  ``validate_partitioner`` returns a known
#: strategy or raises a one-line :class:`ShardError`.
PARTITIONERS = PARTITIONER.choices
validate_partitioner = PARTITIONER.validate


def parse_shard_spec(spec: str) -> tuple[int, tuple[str, ...]]:
    """Parse a ``--shards`` spec: ``"N"`` (all strategies) or
    ``"N,strategy"`` (one strategy).  Raises :class:`ShardError` on
    malformed input — the CLI turns that into a one-line exit-2
    diagnostic, like ``--faults``."""
    malformed = ShardError(
        f"malformed --shards spec {spec!r}: expected N or N,strategy"
    )
    head, comma, tail = spec.partition(",")
    try:
        shards = int(head)
    except ValueError:
        raise malformed from None
    if comma and (not tail.strip() or "," in tail):
        raise malformed
    if shards < 1:
        raise ShardError(f"--shards count must be >= 1, got {shards}")
    if not comma:
        return shards, PARTITIONERS
    return shards, (validate_partitioner(tail.strip()),)


#: Relaxed balance factor for the greedy min-edge-cut heuristic: a
#: shard may grow to 1.25x the perfectly even share before the
#: heuristic stops placing neighbors on it.  METIS's default ufactor
#: territory — enough slack to keep clusters whole, tight enough that
#: no shard hoards the graph.
_CAPACITY_SLACK = 1.25


def stable_key_hash(key: object) -> int:
    """A ``PYTHONHASHSEED``-independent hash for exchange routing.

    Shuffle keys are terms, tuples of terms, and small scalars, all
    with deterministic ``repr``; BLAKE2b over ``type|repr`` gives a
    stable, well-mixed integer where the builtin ``hash()`` would leak
    the process's hash seed into shard assignment.
    """
    token = f"{type(key).__name__}|{key!r}"
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _subject_hash(subject: Term) -> int:
    return int.from_bytes(
        hashlib.blake2b(subject.n3().encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class Partition:
    """One strategy's assignment of a graph's subjects to N shards."""

    strategy: str
    shards: int
    #: subject term -> shard index, for every subject in the graph.
    assignment: dict[Term, int]
    #: Per-shard totals over the assigned triplegroups.
    group_counts: tuple[int, ...]
    triple_counts: tuple[int, ...]
    weights: tuple[int, ...]  # estimated bytes per shard
    #: Subject-to-subject edges whose endpoints landed on different
    #: shards (the communication the assembly exchange must pay for),
    #: out of all such edges in the graph.
    cut_edges: int
    total_edges: int

    @property
    def cut_fraction(self) -> float:
        if not self.total_edges:
            return 0.0
        return self.cut_edges / self.total_edges

    def owner_for_key(self, key: object) -> int:
        """Which shard owns a shuffle key during the assembly exchange.

        Keys that *are* graph subjects (α-join keys on the subject
        side, and object-side keys hitting an inter-star edge) route to
        the shard that already holds that subject's triplegroup — this
        is where a locality-aware partition turns into fewer
        cross-shard bytes.  Everything else (aggregation group keys,
        literals) routes by stable hash, identically under every
        strategy.
        """
        if self.shards == 1:
            return 0
        try:
            owner = self.assignment.get(key)  # type: ignore[arg-type]
        except TypeError:  # unhashable keys cannot be subjects
            owner = None
        if owner is not None:
            return owner
        return stable_key_hash(key) % self.shards

    def describe(self) -> str:
        per_shard = " ".join(
            f"s{index}:{groups}g/{weight}B"
            for index, (groups, weight) in enumerate(
                zip(self.group_counts, self.weights)
            )
        )
        return (
            f"{self.strategy} over {self.shards} shard(s): {per_shard}; "
            f"edge cut {self.cut_edges}/{self.total_edges}"
        )


def _subject_edges(
    groups: list[TripleGroup], index_of: dict[Term, int]
) -> list[tuple[int, int]]:
    """Unique undirected subject-to-subject edges, in deterministic
    (first-seen) order.  A triple whose object is another group's
    subject links the two groups — exactly the places an α-join key
    can land on a different shard than the group that emitted it."""
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for left, group in enumerate(groups):
        for triple in group.triples:
            right = index_of.get(triple.object)
            if right is None or right == left:
                continue
            edge = (left, right) if left < right else (right, left)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def _assign_hash(groups: list[TripleGroup], shards: int) -> list[int]:
    return [_subject_hash(group.subject) % shards for group in groups]


def _assign_locality(
    groups: list[TripleGroup], weights: list[int], shards: int
) -> list[int]:
    order = sorted(range(len(groups)), key=lambda i: term_sort_key(groups[i].subject))
    total = sum(weights) or 1
    assignment = [0] * len(groups)
    cumulative = 0
    for i in order:
        # The group's weight midpoint decides its range, so shards get
        # near-equal byte shares even when group sizes are skewed.
        midpoint = cumulative + weights[i] // 2
        assignment[i] = min(shards - 1, midpoint * shards // total)
        cumulative += weights[i]
    return assignment


def _assign_min_edge_cut(
    groups: list[TripleGroup],
    weights: list[int],
    edges: list[tuple[int, int]],
    shards: int,
) -> list[int]:
    neighbors: list[list[int]] = [[] for _ in groups]
    for left, right in edges:
        neighbors[left].append(right)
        neighbors[right].append(left)
    capacity = _CAPACITY_SLACK * (sum(weights) / shards) if groups else 0.0
    # Place well-connected vertices first — they anchor their clusters;
    # the subject sort key breaks degree ties deterministically.
    order = sorted(
        range(len(groups)),
        key=lambda i: (-len(neighbors[i]), term_sort_key(groups[i].subject)),
    )
    assignment = [-1] * len(groups)
    loads = [0] * shards
    for i in order:
        votes = [0] * shards
        for j in neighbors[i]:
            if assignment[j] >= 0:
                votes[assignment[j]] += 1
        best = -1
        for shard in range(shards):
            if votes[shard] and loads[shard] + weights[i] <= capacity:
                if best < 0 or votes[shard] > votes[best] or (
                    votes[shard] == votes[best] and loads[shard] < loads[best]
                ):
                    best = shard
        if best < 0:
            # No placed neighbor (or all of them live on full shards):
            # seed the lightest shard, lowest index on ties.
            best = min(range(shards), key=lambda shard: (loads[shard], shard))
        assignment[i] = best
        loads[best] += weights[i]
    return assignment


def build_partition(graph: Graph, strategy: str, shards: int) -> Partition:
    """Partition *graph*'s subject triplegroups across *shards* workers.

    A graph memo entry per ``(strategy, shards)``: the differential suite
    partitions the same session graph dozens of times (queries x
    strategies x shard counts).  The groups weighed are the graph's one
    subject grouping, the same objects the NTGA layout stores."""
    validate_partitioner(strategy)
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    return graph.derived(
        ("shard.partition", strategy, shards),
        lambda: _partition(subject_groups(graph), strategy, shards),
    )


def _partition(groups: list[TripleGroup], strategy: str, shards: int) -> Partition:
    weights = [group.estimated_size() for group in groups]
    index_of = {group.subject: i for i, group in enumerate(groups)}
    edges = _subject_edges(groups, index_of)
    if shards == 1:
        assignment = [0] * len(groups)
    elif strategy == "hash":
        assignment = _assign_hash(groups, shards)
    elif strategy == "locality":
        assignment = _assign_locality(groups, weights, shards)
    else:
        assignment = _assign_min_edge_cut(groups, weights, edges, shards)
    group_counts = [0] * shards
    triple_counts = [0] * shards
    shard_weights = [0] * shards
    for i, group in enumerate(groups):
        shard = assignment[i]
        group_counts[shard] += 1
        triple_counts[shard] += len(group.triples)
        shard_weights[shard] += weights[i]
    cut = sum(1 for left, right in edges if assignment[left] != assignment[right])
    return Partition(
        strategy=strategy,
        shards=shards,
        assignment={group.subject: assignment[i] for i, group in enumerate(groups)},
        group_counts=tuple(group_counts),
        triple_counts=tuple(triple_counts),
        weights=tuple(shard_weights),
        cut_edges=cut,
        total_edges=len(edges),
    )
