"""Dataset profiling: the statistics that drive the paper's trade-offs.

``GraphStats`` summarizes a graph the way a query planner (or a reader
of the paper's Section 5) needs: per-property triple counts (VP table
sizes — the map-join decision input), multi-valuedness (the MeSH-heading
blowup factor), class sizes (rdf:type selectivity, the lo/hi query
variants), and the subject equivalence-class histogram (the NTGA
storage layout).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Term
from repro.rdf.triples import RDF_TYPE

#: Selectivity assigned to a class that is absent from the statistics
#: while the graph *does* have typed subjects.  Distinguishes "unknown
#: class" (rare, but possible) from "no typed subjects at all" (0.0):
#: a cardinality estimator must never read an unseen class as literally
#: impossible, or it prices every downstream join at zero rows.
UNKNOWN_CLASS_SELECTIVITY = 1e-6


@dataclass(frozen=True)
class PropertyStats:
    property: IRI
    triples: int
    distinct_subjects: int
    distinct_objects: int
    #: Total serialized bytes of this property's (subject, object) pairs
    #: — the VP-table payload, and the per-property byte input to the
    #: cost-based planner's volume estimates.
    payload_bytes: int = 0
    #: Object-fanout distribution: sorted ``(fanout, subjects)`` pairs —
    #: how many subjects carry exactly ``fanout`` objects under this
    #: property.  This is the factorization planner's raw input: a
    #: property compresses under the factorized representation exactly
    #: when mass sits at fanout > 1.
    fanout_histogram: tuple[tuple[int, int], ...] = ()

    @property
    def avg_fanout(self) -> float:
        """Average objects per subject — >1 means multi-valued."""
        if self.distinct_subjects == 0:
            return 0.0
        return self.triples / self.distinct_subjects

    @property
    def max_fanout(self) -> int:
        """Largest per-subject object count (0 on an empty property)."""
        return self.fanout_histogram[-1][0] if self.fanout_histogram else 0

    @property
    def is_multi_valued(self) -> bool:
        return self.triples > self.distinct_subjects


@dataclass
class GraphStats:
    total_triples: int
    properties: dict[IRI, PropertyStats] = field(default_factory=dict)
    class_sizes: dict[Term, int] = field(default_factory=dict)
    equivalence_class_histogram: Counter = field(default_factory=Counter)

    def property_stats(self, prop: IRI) -> PropertyStats | None:
        return self.properties.get(prop)

    def class_selectivity(self, cls: Term) -> float:
        """Fraction of typed subjects that belong to *cls*.

        Returns 0.0 only when the graph has no typed subjects at all.
        A class missing from ``class_sizes`` gets a small nonzero floor
        (half a subject, never below :data:`UNKNOWN_CLASS_SELECTIVITY`)
        so cardinality estimates over an unseen class stay nonzero
        instead of zeroing out every downstream join.
        """
        total = sum(self.class_sizes.values())
        if total == 0:
            return 0.0
        size = self.class_sizes.get(cls)
        if size is None:
            return max(UNKNOWN_CLASS_SELECTIVITY, 0.5 / total)
        return size / total

    def largest_properties(self, limit: int = 5) -> list[PropertyStats]:
        ranked = sorted(
            self.properties.values(), key=lambda s: s.triples, reverse=True
        )
        return ranked[:limit]

    def describe(self, limit: int = 8) -> str:
        lines = [f"{self.total_triples} triples, {len(self.properties)} properties"]
        lines.append("largest properties (VP table sizes):")
        for stats in self.largest_properties(limit):
            flag = " [multi-valued]" if stats.is_multi_valued else ""
            lines.append(
                f"  {stats.property.local_name():24s} {stats.triples:8d} triples, "
                f"fanout {stats.avg_fanout:.2f}{flag}"
            )
        if self.class_sizes:
            lines.append("classes (rdf:type selectivity):")
            for cls, size in sorted(self.class_sizes.items(), key=lambda kv: -kv[1])[:limit]:
                name = cls.local_name() if isinstance(cls, IRI) else str(cls)
                lines.append(f"  {name:24s} {size:8d} ({self.class_selectivity(cls):.1%})")
        lines.append(
            f"subject equivalence classes: {len(self.equivalence_class_histogram)}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Machine-readable statistics (``repro stats --json``).

        Deterministically ordered: properties and classes sorted by IRI,
        the equivalence-class histogram by its sorted member properties.
        """
        properties = {
            stats.property.value: {
                "triples": stats.triples,
                "distinct_subjects": stats.distinct_subjects,
                "distinct_objects": stats.distinct_objects,
                "payload_bytes": stats.payload_bytes,
                "avg_fanout": round(stats.avg_fanout, 6),
                "max_fanout": stats.max_fanout,
                "fanout_histogram": {
                    str(fanout): subjects
                    for fanout, subjects in stats.fanout_histogram
                },
                "multi_valued": stats.is_multi_valued,
            }
            for stats in sorted(self.properties.values(), key=lambda s: s.property.value)
        }
        classes = {
            (cls.value if isinstance(cls, IRI) else str(cls)): {
                "subjects": size,
                "selectivity": round(self.class_selectivity(cls), 6),
            }
            for cls, size in sorted(
                self.class_sizes.items(),
                key=lambda kv: kv[0].value if isinstance(kv[0], IRI) else str(kv[0]),
            )
        }
        histogram = [
            {"properties": sorted(prop.value for prop in ec), "subjects": count}
            for ec, count in sorted(
                self.equivalence_class_histogram.items(),
                key=lambda kv: sorted(prop.value for prop in kv[0]),
            )
        ]
        return {
            "schema": "repro-graph-stats/v1.2",
            "total_triples": self.total_triples,
            "properties": properties,
            "classes": classes,
            "equivalence_classes": histogram,
        }


def profile(graph: Graph) -> GraphStats:
    """Compute full statistics in one pass over the graph."""
    from repro.mapreduce.cost import estimate_size

    triples_per_property: Counter = Counter()
    subjects_per_property: dict[IRI, set] = defaultdict(set)
    objects_per_property: dict[IRI, set] = defaultdict(set)
    payload_per_property: Counter = Counter()
    objects_per_subject: Counter = Counter()
    class_sizes: Counter = Counter()
    subject_properties: dict[Term, set] = defaultdict(set)

    for triple in graph:
        prop = triple.property
        triples_per_property[prop] += 1
        subjects_per_property[prop].add(triple.subject)
        objects_per_property[prop].add(triple.object)
        payload_per_property[prop] += estimate_size(triple.subject) + estimate_size(
            triple.object
        )
        objects_per_subject[(prop, triple.subject)] += 1
        subject_properties[triple.subject].add(prop)
        if prop == RDF_TYPE:
            class_sizes[triple.object] += 1

    fanout_histograms: dict[IRI, Counter] = defaultdict(Counter)
    for (prop, _subject), fanout in objects_per_subject.items():
        fanout_histograms[prop][fanout] += 1

    properties = {
        prop: PropertyStats(
            property=prop,
            triples=count,
            distinct_subjects=len(subjects_per_property[prop]),
            distinct_objects=len(objects_per_property[prop]),
            payload_bytes=payload_per_property[prop],
            fanout_histogram=tuple(sorted(fanout_histograms[prop].items())),
        )
        for prop, count in triples_per_property.items()
    }
    histogram: Counter = Counter(
        frozenset(props) for props in subject_properties.values()
    )
    return GraphStats(
        total_triples=len(graph),
        properties=properties,
        class_sizes=dict(class_sizes),
        equivalence_class_histogram=histogram,
    )


def cached_profile(graph: Graph) -> GraphStats:
    """:func:`profile`, computed once per graph version (a graph memo
    entry): the cost-based planner asks for statistics on every
    execution, and one profile serves every engine run over the graph."""
    return graph.derived(("rdf.profile",), lambda: profile(graph))
