"""Benchmark harness: workload catalog, experiment runners, reporting."""

from repro.bench.catalog import (
    CATALOG,
    CatalogQuery,
    SubqueryStructure,
    get_query,
    multi_grouping_queries,
    queries_for_dataset,
    single_grouping_queries,
)
from repro.bench.harness import (
    EXPERIMENTS,
    Experiment,
    ExperimentResult,
    QueryMeasurement,
    bsbm_config,
    chem_config,
    mg13_disk_exhaustion,
    pubmed_config,
    run_experiment,
    run_paper_experiment,
    table3_bsbm,
)
from repro.bench.reporting import render_cost_table, render_gains_table, render_io_table

__all__ = [
    "CATALOG",
    "CatalogQuery",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "QueryMeasurement",
    "SubqueryStructure",
    "bsbm_config",
    "chem_config",
    "get_query",
    "mg13_disk_exhaustion",
    "multi_grouping_queries",
    "pubmed_config",
    "queries_for_dataset",
    "render_cost_table",
    "render_gains_table",
    "render_io_table",
    "run_experiment",
    "run_paper_experiment",
    "single_grouping_queries",
    "table3_bsbm",
]
