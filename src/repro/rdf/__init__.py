"""RDF data model: terms, triples, graphs, namespaces, N-Triples I/O."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.rdf.graph": ("Graph",),
        "repro.rdf.namespaces": (
            "BSBM_INST_NS",
            "BSBM_NS",
            "CHEM_INST_NS",
            "CHEM_NS",
            "Namespace",
            "NamespaceManager",
            "PUBMED_INST_NS",
            "PUBMED_NS",
            "RDF_NS",
            "RDFS_NS",
            "XSD_NS",
            "default_manager",
        ),
        "repro.rdf.stats": ("GraphStats", "PropertyStats", "profile"),
        "repro.rdf.ntriples": ("parse", "parse_graph", "parse_line", "serialize", "write"),
        "repro.rdf.terms": (
            "BNode",
            "IRI",
            "Literal",
            "Term",
            "TermOrVar",
            "Variable",
            "is_concrete",
            "term_interned_sort_key",
            "term_sort_key",
        ),
        "repro.rdf.triples": ("RDF_TYPE", "Triple", "TriplePattern", "join_variables"),
    },
)
