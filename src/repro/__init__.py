"""repro — a reproduction of "Optimization of Complex SPARQL Analytical
Queries" (Ravindra, Kim, Anyanwu; EDBT 2016).

The library implements the paper's RAPIDAnalytics system — composite
graph pattern rewriting and parallel grouping-aggregation over the
Nested TripleGroup Algebra — together with every substrate it needs:
an RDF store, a SPARQL front end, a deterministic MapReduce simulator,
Hive-style baselines (naive and MQO), synthetic benchmark dataset
generators (BSBM-BI, Chem2Bio2RDF, PubMed), and a benchmark harness
that regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import Graph, run_query
    from repro.datasets import bsbm

    graph = bsbm.generate(bsbm.BSBMConfig(products=200, seed=7))
    report = run_query(MY_SPARQL, graph, engine="rapid-analytics")
    for row in report.rows:
        print(row)
    print(report.cycles, "MR cycles,", report.cost_seconds, "simulated seconds")
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.engines": ("make_engine", "run_query"),
        "repro.core.results": ("EngineConfig",),
        "repro.rdf.graph": ("Graph",),
        "repro.rdf.terms": ("IRI", "Literal"),
        "repro.rdf.triples": ("Triple",),
        "repro.sparql.parser": ("parse_query",),
    },
)
__all__ += ["__version__"]
