"""Execution configuration and report types shared by all engines."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.ambient import KNOBS
from repro.errors import ShardError
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.cost import ClusterConfig, CostModel, register_sized_dict
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.runner import WorkflowStats
from repro.rdf.terms import Term, Variable


@register_sized_dict
class Row(dict):
    """A solution row: variable → term bindings.

    A ``dict`` subclass — equality, iteration, and repr are dict's own,
    so rows compare equal to plain-dict bindings (the reference
    evaluator's output) exactly as before.  The subclass exists to carry
    a hidden slot in which the size estimator pins the row's
    serialized-size estimate: rows are write-once after construction yet
    were re-walked on every shuffle accounting and materialization.
    """

    __slots__ = ("_size",)


def rows_digest(rows: list[dict]) -> str:
    """A stable fingerprint of an engine's result rows, **in order**.

    Row order is part of the fingerprint on purpose: the sort-key
    overhaul must not reorder fold/reducer output, and any reorder
    shows up here even when the row multiset is unchanged.
    """
    hasher = hashlib.sha256()
    for row in rows:
        rendered = ";".join(
            f"{variable.n3()}={term.n3()}"
            for variable, term in sorted(row.items(), key=lambda kv: kv[0].name)
        )
        hasher.update(rendered.encode("utf-8"))
        hasher.update(b"\x1e")
    return hasher.hexdigest()


@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by every engine execution.

    ``mapjoin_threshold`` is Hive's small-table limit: a join whose
    non-streamed inputs all fit under it compiles to a map-only cycle.
    ``hdfs_capacity`` bounds simulated disk (None = unlimited) — the
    paper's MG13 naive-Hive failure reproduces by setting it.
    ``fault_plan`` injects seeded task crashes / stragglers / write
    failures with Hadoop-style recovery (None = fault-free).
    ``recovery`` enables workflow-level checkpoint/resume: job aborts
    re-submit the workflow from the HDFS commit ledger instead of
    failing the query (None = aborts stay fatal, as before).
    ``representation`` overrides the NTGA intermediate-record
    representation ("factorized"/"flat"/"auto"); None defers to the
    ambient context or the default (see :mod:`repro.ntga.factorized`).
    ``planner`` overrides the plan-selection mode ("rule"/"cost"/"auto");
    None defers to the ambient context or the default (see
    :mod:`repro.plan`).  ``plan_decision`` names a candidate plan the
    serve layer's plan cache replays for this query's fingerprint,
    skipping re-selection (ignored under the rule planner).
    ``shards``/``partitioner`` turn on sharded execution (see
    :mod:`repro.shard`): the graph is partitioned across N simulated
    workers, each shard evaluates the NTGA plan locally, and
    cross-shard joins assemble through a priced exchange step.
    ``shards=1`` is the single-cluster path; ``partitioner`` defaults
    to ``"hash"`` when shards > 1.

    A config validates itself: the three enumerated knobs go through
    the knob table (:mod:`repro.ambient`; a representation is stored in
    its canonical spelling) and ``shards`` must be >= 1, so a bad value
    is a one-line typed error where the config is built, not at plan
    time.  Which *combinations* an engine supports is
    :func:`check_supported`'s to say.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    mapjoin_threshold: int = 64 * 1024
    hdfs_capacity: int | None = None
    fault_plan: FaultPlan | None = None
    recovery: RecoveryPolicy | None = None
    representation: str | None = None
    planner: str | None = None
    plan_decision: str | None = None
    shards: int = 1
    partitioner: str | None = None

    def __post_init__(self) -> None:
        # Rebuilt per serve attempt: the valid case costs three tuple
        # membership tests and a comparison.
        for knob in KNOBS:
            value = getattr(self, knob.name)
            if value is not None and value not in knob.choices:
                object.__setattr__(self, knob.name, knob.validate(value))
        if self.shards < 1:
            raise ShardError(f"shards must be >= 1, got {self.shards}")

    @property
    def sharded(self) -> bool:
        return self.shards > 1 or self.partitioner is not None


#: Engines that understand ``EngineConfig.shards`` / ``partitioner``
#: (the NTGA engines route through :mod:`repro.shard`); the reference
#: and Hive engines never read the knobs, so their ``execute`` refuses them.
SHARD_CAPABLE_ENGINES = ("rapid-plus", "rapid-analytics")


def check_supported(engine: str, config: EngineConfig | None) -> None:
    """Reject a combination of engine and config that would otherwise be
    silently ignored — the one place such a combination is declared
    unsupported."""
    if config is None or not config.sharded:
        return
    if engine not in SHARD_CAPABLE_ENGINES:
        known = ", ".join(SHARD_CAPABLE_ENGINES)
        raise ShardError(
            f"engine {engine!r} does not support sharded execution "
            f"(shards={config.shards}); sharding is available on: {known}"
        )


@dataclass
class ExecutionReport:
    """Everything one engine run produced."""

    engine: str
    rows: list[Row]
    stats: WorkflowStats | None
    plan: list[str] = field(default_factory=list)
    load_bytes: int = 0
    plan_description: str = ""
    #: The cost-based planner's decision record
    #: (:class:`repro.plan.enumerator.PlanChoice`) — None when the plan
    #: came from the rule-based path.
    plan_choice: object | None = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles if self.stats is not None else 0

    @property
    def full_cycles(self) -> int:
        return self.stats.full_cycles if self.stats is not None else 0

    @property
    def map_only_cycles(self) -> int:
        return self.stats.map_only_cycles if self.stats is not None else 0

    @property
    def cost_seconds(self) -> float:
        return self.stats.total_cost if self.stats is not None else 0.0

    def summary(self) -> str:
        return (
            f"{self.engine}: {len(self.rows)} rows, {self.cycles} cycles "
            f"({self.map_only_cycles} map-only), cost={self.cost_seconds:.2f}s"
        )
