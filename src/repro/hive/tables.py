"""Vertically partitioned triple storage (the Hive baselines' layout).

Following the paper's pre-processing: one table per property holding
``(subject, object)`` pairs, with property-object partitions for
``rdf:type`` triples (one table per class), all stored in a compressed
columnar format (ORC) modeled as a size reduction factor on HDFS.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from hashlib import blake2s

from repro.core.query_model import PropKey
from repro.errors import PlanningError
from repro.mapreduce import cost
from repro.mapreduce.hdfs import HDFS
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.rdf.triples import RDF_TYPE


def _safe_name(text: str) -> str:
    digest = blake2s(text.encode(), digest_size=4).hexdigest()
    local = text.rsplit("/", 1)[-1].rsplit("#", 1)[-1]
    cleaned = "".join(c if c.isalnum() else "_" for c in local)[:40]
    return f"{cleaned}_{digest}"


@dataclass
class VPStore:
    """Manifest of vertically partitioned tables on HDFS."""

    prop_paths: dict[IRI, str] = field(default_factory=dict)
    type_paths: dict[Term, str] = field(default_factory=dict)
    #: Placeholder table returned for properties/classes absent from the
    #: data — a query over them is valid and simply yields no rows.
    empty_path: str = ""
    total_bytes: int = 0

    def path_for(self, key: PropKey) -> str:
        """The table backing one triple-pattern property key."""
        if key.type_object is not None:
            path = self.type_paths.get(key.type_object, self.empty_path)
        else:
            path = self.prop_paths.get(key.property, self.empty_path)
        if not path:
            raise PlanningError(f"no VP table (or empty placeholder) for {key}")
        return path

    def has(self, key: PropKey) -> bool:
        if key.type_object is not None:
            return key.type_object in self.type_paths
        return key.property in self.prop_paths


def _partitioned(graph: Graph) -> tuple[list, list]:
    """The graph's VP tables in deterministic write order:
    ``([(property, records, raw_size)], [(class, records, raw_size)])``.

    A graph memo entry, like the NTGA layout: every Hive-family engine
    execution reads it, so the partitioned record lists (and their
    once-computed raw sizes) are built once per graph version.  With the
    caches off they are rebuilt on every call."""
    if not cost.SIZE_CACHE_ENABLED:
        return _vp_tables(graph)
    return graph.derived(("hive.vp_tables",), lambda: _vp_tables(graph))


def _vp_tables(graph: Graph) -> tuple[list, list]:
    plain: dict[IRI, list[tuple[Term, Term]]] = defaultdict(list)
    typed: dict[Term, list[tuple[Term]]] = defaultdict(list)
    for triple in graph:
        if triple.property == RDF_TYPE:
            typed[triple.object].append((triple.subject,))
        else:
            plain[triple.property].append((triple.subject, triple.object))
    return (
        [
            (prop, plain[prop], cost.estimate_total_size(plain[prop]))
            for prop in sorted(plain, key=lambda p: p.value)
        ],
        [
            (cls, typed[cls], cost.estimate_total_size(typed[cls]))
            for cls in sorted(typed, key=str)
        ],
    )


def load_vertical_partitions(graph: Graph, hdfs: HDFS, prefix: str = "vp") -> VPStore:
    """Partition a graph into VP tables and write them (ORC-compressed)."""
    store = VPStore(empty_path=f"{prefix}/_empty")
    hdfs.write(store.empty_path, [], compressed=True)
    plain_tables, typed_tables = _partitioned(graph)
    for prop, records, raw in plain_tables:
        path = f"{prefix}/{_safe_name(prop.value)}"
        file = hdfs.write(path, records, compressed=True, raw_hint=raw)
        store.prop_paths[prop] = path
        store.total_bytes += file.size_bytes
    for cls, records, raw in typed_tables:
        name = _safe_name(cls.value if isinstance(cls, IRI) else str(cls))
        path = f"{prefix}/type/{name}"
        file = hdfs.write(path, records, compressed=True, raw_hint=raw)
        store.type_paths[cls] = path
        store.total_bytes += file.size_bytes
    return store
