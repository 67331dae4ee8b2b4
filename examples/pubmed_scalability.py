"""PubMed analytics and the MG13 disk-exhaustion study (Table 4).

Runs the grant/country and MeSH-heading workloads on a synthetic
Bio2RDF-PubMed dataset, then reproduces the paper's MG13 finding: under
a bounded HDFS capacity, naive Hive — which materializes the expanded
multi-valued MeSH join twice — runs out of disk, while RAPIDAnalytics'
nested triplegroups and shared execution finish comfortably.

Run:  python examples/pubmed_scalability.py
"""

from repro.bench.catalog import get_query
from repro.bench.harness import MG13_CAPACITY, pubmed_config, run_experiment
from repro.bench.reporting import render_cost_table, render_io_table
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.datasets import pubmed
from repro.errors import HDFSOutOfSpaceError


def main() -> None:
    graph = pubmed.generate(pubmed.preset("paper"))
    print(f"PubMed-style dataset: {len(graph)} triples\n")

    result = run_experiment(
        "example-table4",
        "MG11/MG13/MG16 across engines (PubMed)",
        [get_query("MG11"), get_query("MG13"), get_query("MG16")],
        graph,
        PAPER_ENGINES,
        pubmed_config(),
        verify=True,
    )
    assert not result.mismatches
    print(render_cost_table(result))
    print()
    print(render_io_table(result))
    print()

    print(f"--- MG13 under an HDFS capacity of {MG13_CAPACITY:,} bytes ---")
    analytical = to_analytical(get_query("MG13").sparql)
    for engine in PAPER_ENGINES:
        config = pubmed_config(hdfs_capacity=MG13_CAPACITY)
        try:
            report = make_engine(engine).execute(analytical, graph, config)
        except HDFSOutOfSpaceError as error:
            print(f"  {engine:16s} FAILED: {error}")
        else:
            used = report.load_bytes + report.stats.total_materialized_bytes
            print(f"  {engine:16s} completed, {used:,} bytes of HDFS used")
    print()
    print(
        "The paper reports the same outcome at cluster scale: naive Hive's\n"
        "MG13 run 'eventually failed due to insufficient HDFS disk space'\n"
        "(a 190GB star-join output materialized twice), while the\n"
        "triplegroup-based plans completed."
    )


if __name__ == "__main__":
    main()
