"""RDF data model: terms, triples, graphs, namespaces, N-Triples I/O."""
