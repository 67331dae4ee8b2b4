"""Benchmark harness: workload catalog, experiment runners, reporting."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bench.catalog": (
            "CATALOG",
            "CatalogQuery",
            "SubqueryStructure",
            "get_query",
            "multi_grouping_queries",
            "queries_for_dataset",
            "single_grouping_queries",
        ),
        "repro.bench.harness": (
            "EXPERIMENTS",
            "Experiment",
            "ExperimentResult",
            "QueryMeasurement",
            "bsbm_config",
            "chem_config",
            "mg13_disk_exhaustion",
            "pubmed_config",
            "run_experiment",
            "run_paper_experiment",
            "table3_bsbm",
        ),
        "repro.bench.reporting": (
            "render_cost_table", "render_gains_table", "render_io_table"
        ),
    },
)
