"""The one baseline-vs-variant loop behind the A/B reports.

An *arm* is a named :class:`~repro.core.results.EngineConfig`;
:func:`run_arms` runs every (arm, query, engine) once and returns the
outcomes keyed by ``(arm, qid, engine)``.  The planner, shard and
calibration A/Bs are row builders over :func:`catalog_runs`, the fault
and chaos reports over :func:`experiment_runs` compared by
:func:`versus_baseline`, and :func:`repro.bench.harness.run_experiment`
is the loop's one-arm case.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro import obs
from repro.bench.catalog import CatalogQuery, get_query
from repro.bench.harness import EXPERIMENTS, Experiment, QueryMeasurement, paper_experiment
from repro.core.engines import make_engine, to_analytical
from repro.core.results import EngineConfig, ExecutionReport, rows_digest
from repro.datasets import generate
from repro.errors import ReproError
from repro.mapreduce.checkpoint import RECOVERY_COUNTERS
from repro.mapreduce.faults import FAULT_COUNTERS
from repro.rdf.graph import Graph

#: The catalog A/Bs' default slice: Figure 8's BSBM multi-grouping
#: queries, whose composite rewrite the cost planner second-guesses and
#: whose inter-star joins make partitioning quality visible.
DEFAULT_QUERIES = EXPERIMENTS["figure8a"].queries

#: The catalog A/Bs' verdicts are about plan choice and traffic ratios,
#: not scale: every dataset runs at its smallest preset, on the paper's
#: engine.
CATALOG_PRESET = "tiny"
CATALOG_ENGINE = "rapid-analytics"

Key = tuple[str, str, str]


def _measured(qid: str, engine: str, report: ExecutionReport) -> QueryMeasurement:
    stats = report.stats
    return QueryMeasurement(
        qid=qid,
        engine=engine,
        rows=len(report.rows),
        cycles=report.cycles,
        map_only_cycles=report.map_only_cycles,
        cost_seconds=report.cost_seconds,
        shuffle_bytes=stats.total_shuffle_bytes if stats else 0,
        materialized_bytes=stats.total_materialized_bytes if stats else 0,
        counters=dict(sorted(stats.counters.as_dict().items())) if stats else {},
        rows_digest=rows_digest(report.rows),
        recovery=stats.recovery.as_dict() if stats and stats.recovery is not None else {},
        report=report,
    )


def run_arms(
    queries: Sequence[CatalogQuery],
    engines: Sequence[str],
    graphs: Mapping[str, Graph],
    arms: Mapping[str, EngineConfig],
) -> dict[Key, QueryMeasurement]:
    """Run each query, on its dataset's graph, under each arm on each
    engine; each (query, arm) is one ``query`` span.  An engine that
    aborts (e.g. simulated HDFS exhaustion) is a failed measurement, not
    an exception — the paper reports naive Hive's MG13 failure the same
    way."""
    outcomes: dict[Key, QueryMeasurement] = {}
    for query in queries:
        analytical = to_analytical(query.sparql)
        for arm, config in arms.items():
            with obs.span(query.qid, "query", {"qid": query.qid, "experiment": arm}):
                for engine in engines:
                    try:
                        report = make_engine(engine).execute(
                            analytical, graphs[query.dataset], config
                        )
                    except ReproError as error:
                        outcome = QueryMeasurement(
                            query.qid, engine, 0, 0, 0, float("inf"), 0, 0,
                            failed=type(error).__name__,
                        )
                    else:
                        outcome = _measured(query.qid, engine, report)
                    outcomes[arm, query.qid, engine] = outcome
    return outcomes


class CatalogRun(NamedTuple):
    """One query of a catalog A/B."""

    #: The fields every catalog A/B row starts with: qid, dataset, preset.
    head: dict[str, str]
    graph: Graph
    #: The query's report under each arm.
    reports: dict[str, ExecutionReport]


def catalog_runs(qids: Iterable[str], arms: Mapping[str, EngineConfig]) -> list[CatalogRun]:
    """*qids* on :data:`CATALOG_ENGINE` under each arm, each dataset
    generated once at :data:`CATALOG_PRESET`.  The catalog A/Bs certify
    answers, so a run that aborts is an error, not a row."""
    queries = [get_query(qid) for qid in qids]
    graphs = {
        dataset: generate(dataset, CATALOG_PRESET)
        for dataset in dict.fromkeys(query.dataset for query in queries)
    }
    outcomes = run_arms(queries, (CATALOG_ENGINE,), graphs, arms)
    aborted = [f"{qid}/{arm}: {m.failed}" for (arm, qid, _), m in outcomes.items() if m.failed]
    if aborted:
        raise ReproError(f"catalog A/B runs aborted: {aborted}")
    return [
        CatalogRun(
            {"qid": query.qid, "dataset": query.dataset, "preset": CATALOG_PRESET},
            graphs[query.dataset],
            {arm: outcomes[arm, query.qid, CATALOG_ENGINE].report for arm in arms},
        )
        for query in queries
    ]


def experiment_runs(
    experiment: str,
    what: str,
    variants: Mapping[str, Mapping[str, Any]],
    graph: Graph | None = None,
) -> tuple[Experiment, dict[Key, QueryMeasurement]]:
    """A paper experiment (on *graph* instead of its dataset, when given)
    under its own config — arm ``baseline`` — and under each variant:
    that config with the variant's fields replaced.  *what* names the
    experiment in an unknown-id error."""
    exp = paper_experiment(experiment, what)
    graph = graph if graph is not None else generate(exp.dataset, exp.preset)
    config = exp.config()
    arms = {"baseline": config}
    arms.update((name, replace(config, **fields)) for name, fields in variants.items())
    queries = [get_query(qid) for qid in exp.queries]
    return exp, run_arms(queries, exp.engines, {exp.dataset: graph}, arms)


def _base_counters(measurement: QueryMeasurement) -> dict[str, int]:
    # Everything the fault and checkpoint/resume layers do not own: a
    # resumed run adds the RECOVERY_COUNTERS on top of an identical base.
    return {
        name: value
        for name, value in measurement.counters.items()
        if name not in FAULT_COUNTERS and name not in RECOVERY_COUNTERS
    }


def versus_baseline(run: QueryMeasurement, base: QueryMeasurement) -> dict[str, Any]:
    """The fields a fault or chaos row shares: what *run* was, whether
    it matches the fault-free *base* — rows digest and base counters —
    and what it cost on top.  An aborted run matches nothing and has no
    extra cost."""
    done = not run.failed
    return {
        "qid": run.qid,
        "engine": run.engine,
        "rows": run.rows,
        "failed": run.failed,
        "rows_match_baseline": done and run.rows_digest == base.rows_digest,
        "base_counters_match_baseline": done and _base_counters(run) == _base_counters(base),
        "baseline_cost_seconds": repr(base.cost_seconds),
        "extra_cost_seconds": round(run.cost_seconds - base.cost_seconds, 6) if done else None,
    }
