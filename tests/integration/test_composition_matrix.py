"""The composition matrix: every catalog query on every paper engine
under every supported combination of configs, generated from one axis
table and the one declaration of what an engine supports
(:func:`repro.core.results.check_supported`).

* A **base** cell (``default`` or the per-dataset ``bench`` config) must
  return the reference evaluator's row bag.
* A **variant** cell changes one axis of its base and must return the
  base's rows *exactly* (values and order), plus the axis's checks.
* A **cross** cell changes two axes of ``default``: same rows, plus the
  identities each axis states of a run alone.
* A cell the declaration rejects must raise the one-line ``ShardError``
  from ``engine.execute`` (asserted on one query per dataset).

Each base runs once (:func:`tests.conftest.base_run`), and so does each
cell, however many ids name it.  Adding an ``EngineConfig`` field means
adding an axis row here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable

import pytest

from repro.ambient import REPRESENTATION
from repro.bench.catalog import CATALOG
from repro.core.engines import PAPER_ENGINES, make_engine
from repro.core.results import SHARD_CAPABLE_ENGINES, EngineConfig, check_supported
from repro.errors import ShardError
from repro.mapreduce.checkpoint import RECOVERY_COUNTERS, RecoveryPolicy
from repro.mapreduce.faults import FAULT_COUNTERS, FaultPlan
from repro.shard.partition import PARTITIONERS
from tests.conftest import BASES, bench_config, canonical_sorted_rows, catalog_graph, catalog_query

QIDS = tuple(sorted(CATALOG))
#: One query per dataset: the cross cells and the rejected cells.
SLICE = ("MG1", "MG6", "MG11")
SHARD_COUNTS = (1, 2, 4, 7)


# -- what an axis checks: (config, run, base) -> None ----------------------------


def _counters(report) -> dict[str, int]:
    return report.stats.counters.as_dict() if report.stats is not None else {}


def _base_counters(report) -> dict[str, int]:
    return {
        name: value
        for name, value in _counters(report).items()
        if name not in FAULT_COUNTERS | RECOVERY_COUNTERS
    }


def only_adds_cost(config, run, base):
    """Faults and recovery add their own counters and cost, nothing else."""
    assert run.cycles == base.cycles
    assert _base_counters(run) == _base_counters(base)
    assert run.cost_seconds >= base.cost_seconds


def shuffles_no_less(config, run, base):
    """The factorized base never shuffles more than the flat variant."""
    assert run.cycles == base.cycles
    assert base.stats.total_shuffle_bytes <= run.stats.total_shuffle_bytes


def accounts_salvage(config, run, base):
    """Checkpoint replay is accounted, never invented: waste implies a
    failure, and nothing is skipped without a resubmission."""
    recovery = run.stats.recovery
    assert recovery is not None and recovery.extra_seconds >= 0.0
    if recovery.resubmissions == 0:
        assert recovery.wasted_seconds == 0.0 and recovery.jobs_skipped == 0


def expands_per_shard(config, run, base):
    """One shard exchanges nothing; N expand each cycle into shard jobs."""
    if config.shards == 1:
        assert run.stats.total_exchange_bytes == 0
    else:
        assert any("@s" in job.name for job in run.stats.jobs)


def counts_only_what_is_configured(config, run):
    names = set(_counters(run))
    if config.fault_plan is None:
        assert not names & FAULT_COUNTERS
    if config.recovery is None:
        assert not names & RECOVERY_COUNTERS


# -- the axis table ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Axis:
    """One way to vary a base config.  ``checks`` compare a run with its
    base; ``identities`` hold of a run alone, so they survive a cross."""

    name: str
    base: str
    fields: dict
    engines: tuple[str, ...] = PAPER_ENGINES
    qids: tuple[str, ...] = QIDS
    checks: tuple[Callable, ...] = ()
    identities: tuple[Callable, ...] = ()


FAULTS = Axis(
    "faults", "default", {"fault_plan": FaultPlan.from_spec("7,0.05")}, checks=(only_adds_cost,)
)
# max_attempts=1: any injected task failure aborts its job, so this plan
# exercises workflow resubmission, not per-task retry absorption.
RECOVERY = Axis(
    "recovery",
    "default",
    {
        "fault_plan": FaultPlan(seed=13, task_failure_rate=0.1, max_attempts=1),
        "recovery": RecoveryPolicy(max_resubmissions=32),
    },
    checks=(only_adds_cost,),
    identities=(accounts_salvage,),
)
FLAT = Axis(
    "flat", "bench", {"representation": "flat"}, SHARD_CAPABLE_ENGINES, checks=(shuffles_no_less,)
)


def _shards(base: str, shards: int, partitioner: str, *scope) -> Axis:
    fields = {"shards": shards, "partitioner": partitioner}
    name = f"shards={shards},{partitioner}"
    return Axis(name, base, fields, *scope, identities=(expands_per_shard,))


SHARDS = tuple(
    _shards("bench", n, p, ("rapid-analytics", "hive-naive", "hive-mqo"))
    for n in SHARD_COUNTS
    for p in PARTITIONERS
) + tuple(
    # RAPID+ shares the sharded driver: one query per dataset pins it.
    _shards("default", 4, p, ("rapid-plus",), SLICE)
    for p in PARTITIONERS
)
COST = Axis("planner=cost", "default", {"planner": "cost"}, ("rapid-analytics",))
CROSSES = tuple(
    Axis(
        f"{a.name}+{b.name}",
        "default",
        {**a.fields, **b.fields},
        tuple(e for e in SHARD_CAPABLE_ENGINES if e in a.engines and e in b.engines),
        SLICE,
        identities=a.identities + b.identities,
    )
    for a, b in combinations((FAULTS, RECOVERY, FLAT, _shards("default", 2, "hash"), COST), 2)
    # Both set the fault plan: the pair would be the recovery axis again.
    if {a.name, b.name} != {"faults", "recovery"}
)
#: The single-axis variants, by (base, name).
AXIS = {(axis.base, axis.name): axis for axis in (FAULTS, RECOVERY, FLAT, *SHARDS)}


# -- the generated cells ---------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    qid: str
    engine: str
    base: str
    axis: Axis | None = None

    def __str__(self) -> str:
        axis = (self.axis.name,) if self.axis else ()
        return "-".join((self.qid, self.engine, self.base, *axis))

    def config(self) -> EngineConfig:
        base = BASES[self.base](self.qid)
        return replace(base, **self.axis.fields) if self.axis else base


def _supported(cell: Cell) -> bool:
    try:
        check_supported(cell.engine, cell.config())
    except ShardError:
        return False
    return True


def _cells(axes) -> list[Cell]:
    return [Cell(q, e, axis.base, axis) for axis in axes for q in axis.qids for e in axis.engines]


BASE_CELLS = [Cell(q, e, base) for q in QIDS for e in PAPER_ENGINES for base in BASES]
_SINGLE = {cell: _supported(cell) for cell in _cells(AXIS.values())}
VARIANT_CELLS = [cell for cell, ok in _SINGLE.items() if ok]
REJECTED_CELLS = [cell for cell, ok in _SINGLE.items() if not ok and cell.qid in SLICE]
CROSS_CELLS = _cells(CROSSES)


def _execute(request, cell: Cell):
    return make_engine(cell.engine).execute(
        catalog_query(cell.qid), catalog_graph(request, cell.qid), cell.config()
    )


def _check(request, cell: Cell, base_run) -> tuple | None:
    """Run and check *cell*; a variant returns its counters and recovery
    record, which the "the plan fires" tests read."""
    config = cell.config()
    if cell.axis is None:
        run = base_run(cell.qid, cell.engine, cell.base)
        reference = base_run(cell.qid, "reference").rows
        assert canonical_sorted_rows(run.rows) == canonical_sorted_rows(reference), cell
        counts_only_what_is_configured(config, run)
        return None
    run = _execute(request, cell)
    base = base_run(cell.qid, cell.engine, cell.base)
    assert run.rows == base.rows, f"{cell}: {len(run.rows)} rows, base {len(base.rows)}"
    for check in cell.axis.checks + cell.axis.identities:
        check(config, run, base)
    counts_only_what_is_configured(config, run)
    return _counters(run), run.stats.recovery


def check_cell(request, cell: Cell, base_run, checked: dict) -> tuple | None:
    """:func:`_check` once per session (``checked`` is the session's
    ``checked_cells``): a cell several ids name runs once, and each id
    reports its outcome."""
    if cell not in checked:
        try:
            checked[cell] = (None, _check(request, cell, base_run))
        except Exception as failure:
            checked[cell] = (failure, None)
    failure, observed = checked[cell]
    if failure is not None:
        raise failure
    return observed


def view(cells_of: Callable[..., list[Cell]], params: list[tuple]):
    """A test checking, per parameter tuple, the cells ``cells_of`` names:
    how a replaced suite's ids keep naming their cells."""

    @pytest.mark.parametrize("param", params, ids=lambda p: "-".join(map(str, p)))
    def test(request, param, base_run, checked_cells):
        for cell in cells_of(*param):
            check_cell(request, cell, base_run, checked_cells)

    return test


@pytest.mark.parametrize("qid", QIDS)
def test_reference_is_non_vacuous(qid, base_run):
    """GROUP BY ALL queries always return a row, grouped ones must find
    a group on the tiny datasets."""
    assert base_run(qid, "reference").rows, f"{qid} returned no rows"


@pytest.mark.parametrize("cell", BASE_CELLS, ids=str)
def test_base_matches_the_reference(request, cell, base_run, checked_cells):
    check_cell(request, cell, base_run, checked_cells)


@pytest.mark.parametrize("cell", VARIANT_CELLS, ids=str)
def test_variant_matches_its_base(request, cell, base_run, checked_cells):
    check_cell(request, cell, base_run, checked_cells)


@pytest.mark.parametrize("cell", CROSS_CELLS, ids=str)
def test_cross_matches_its_base(request, cell, base_run, checked_cells):
    """CI also runs these under two ``PYTHONHASHSEED`` values."""
    check_cell(request, cell, base_run, checked_cells)


@pytest.mark.parametrize("cell", REJECTED_CELLS, ids=str)
def test_rejected_cell_raises_the_one_line_error(request, cell):
    with pytest.raises(ShardError, match="does not support sharded") as caught:
        _execute(request, cell)
    assert "\n" not in str(caught.value)


def _observed(request, base_run, checked: dict, axis: Axis, engine: str) -> list[tuple]:
    return [
        check_cell(request, cell, base_run, checked)
        for cell in VARIANT_CELLS
        if cell.axis is axis and cell.engine == engine
    ]


@pytest.mark.parametrize("engine", PAPER_ENGINES)
def test_the_fault_plan_fires(request, engine, base_run, checked_cells):
    """Else the fault cells are vacuous: every engine must hit retries
    and speculation somewhere in the catalog."""
    counters = [c for c, _ in _observed(request, base_run, checked_cells, FAULTS, engine)]
    assert sum(c.get("retried_tasks", 0) for c in counters) > 0
    assert sum(c.get("speculative_tasks", 0) for c in counters) > 0


@pytest.mark.parametrize("engine", PAPER_ENGINES)
def test_the_recovery_plan_aborts_and_resumes(request, engine, base_run, checked_cells):
    """Else the recovery cells are vacuous: every engine must resubmit a
    workflow and skip a checkpointed job somewhere in the catalog."""
    recoveries = [r for _, r in _observed(request, base_run, checked_cells, RECOVERY, engine)]
    assert sum(r.resubmissions for r in recoveries) > 0
    assert sum(r.jobs_skipped for r in recoveries) > 0


# -- coverage: the matrix runs everything the suites it replaced ran ------------


def _replaced_runs() -> set[tuple[str, str, EngineConfig]]:
    """Every (qid, engine, config) ``test_engine_equivalence``,
    ``test_differential``, ``test_fault_invariance``,
    ``test_checkpoint_resume`` and the catalog tests of
    ``test_representation_differential`` and ``test_shard_differential``
    ran before the matrix, spelled the way they spelled them."""
    default = EngineConfig()
    faults = replace(default, fault_plan=FaultPlan.from_spec("7,0.05"))
    recovery = replace(
        default,
        fault_plan=FaultPlan(seed=13, task_failure_rate=0.1, max_attempts=1),
        recovery=RecoveryPolicy(max_resubmissions=32),
    )
    strategies = ("hash", "locality", "min-edge-cut")
    runs = set()
    for qid in QIDS:
        bench = bench_config(qid)
        runs |= {(qid, "reference", default), (qid, "reference", bench)}
        for engine in ("hive-naive", "hive-mqo", "rapid-plus", "rapid-analytics"):
            runs |= {(qid, engine, c) for c in (default, bench, faults, recovery)}
        for engine in ("rapid-plus", "rapid-analytics"):
            flat, factorized = (replace(bench, representation=r) for r in ("flat", "factorized"))
            runs |= {(qid, engine, flat), (qid, engine, factorized)}
        runs |= {
            (qid, "rapid-analytics", replace(bench, shards=n, partitioner=p))
            for n in (1, 2, 4, 7)
            for p in strategies
        }
    for qid in ("MG1", "MG6", "MG11"):
        runs |= {(qid, "rapid-plus", EngineConfig(shards=4, partitioner=p)) for p in strategies}
    return runs


def _as_run(qid: str, engine: str, config: EngineConfig):
    """What a run executes: the reference reads no config, and an unset
    representation is the default one."""
    if engine == "reference":
        return qid, engine, None
    if config.representation is None:
        config = replace(config, representation=REPRESENTATION.default)
    return qid, engine, config


def test_the_matrix_covers_every_run_of_the_suites_it_replaced():
    cells = {_as_run(c.qid, c.engine, c.config()) for c in BASE_CELLS + VARIANT_CELLS}
    cells |= {(qid, "reference", None) for qid in QIDS}
    missing = {_as_run(*run) for run in _replaced_runs()} - cells
    assert not missing, sorted((q, e, repr(c)) for q, e, c in missing)[:5]


def test_the_matrix_size():
    """The new coverage, and the engine executions the matrix costs."""
    assert (len(BASE_CELLS), len(CROSS_CELLS), len(REJECTED_CELLS)) == (208, 42, 72)
    assert len(QIDS) + len(BASE_CELLS) + len(VARIANT_CELLS) + len(CROSS_CELLS) <= 900
