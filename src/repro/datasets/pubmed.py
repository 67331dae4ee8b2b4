"""Synthetic PubMed (Bio2RDF release 2) dataset generator.

Models the publication slice queried by MG11-MG18: publications with a
publication type, journal, funding grants (agency + country), authors
(with last names), Medical Subject Headings, and associated chemicals.

Two properties drive the paper's findings and are preserved here:

* ``mesh_heading`` is heavily multi-valued (4-12 headings per record) —
  the join blowup that makes naive Hive materialize a 190GB
  intermediate twice and run out of HDFS space on MG13;
* ``pub_type`` selectivity contrast: most records are "Journal Article"
  (low selectivity, MG15) while few are "News" (high selectivity,
  MG16).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.datasets.seeds import make_rng, weighted_choice, zipf_weights
from repro.errors import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import PUBMED_INST_NS, PUBMED_NS
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple

PUB_TYPES = ("Journal Article", "Review", "Case Reports", "Letter", "News")
#: Most records are journal articles; "News" is rare (high selectivity).
PUB_TYPE_WEIGHTS = (0.72, 0.12, 0.08, 0.05, 0.03)

COUNTRIES = (
    "United States",
    "United Kingdom",
    "Germany",
    "Japan",
    "France",
    "Canada",
    "China",
    "Australia",
)

LAST_NAMES = (
    "Smith", "Mueller", "Tanaka", "Garcia", "Kim", "Novak", "Okafor",
    "Ivanov", "Rossi", "Dubois", "Chen", "Patel", "Johansson", "Silva",
)


#: The vocabulary, built once: ``PUBMED_NS.author`` builds a new IRI on
#: every access, and a load mentions each property once per triple.
_V = SimpleNamespace(**{name: PUBMED_NS.term(name) for name in (
    "last_name", "pub_type", "journal", "grant", "grant_agency",
    "grant_country", "author", "mesh_heading", "chemical",
)})
_PUB_TYPES = tuple(map(Literal, PUB_TYPES))
_COUNTRIES = tuple(map(Literal, COUNTRIES))
_LAST_NAMES = tuple(map(Literal, LAST_NAMES))


@dataclass(frozen=True)
class PubMedConfig:
    publications: int = 800
    journals: int = 40
    agencies: int = 16
    authors: int = 120
    mesh_pool: int = 80
    chemical_pool: int = 50
    min_mesh: int = 4
    max_mesh: int = 12
    seed: int = 1711  # Bio2RDF release 2 PubMed namespace id

    def __post_init__(self) -> None:
        if self.publications <= 0:
            raise DatasetError("publications must be positive")
        if self.min_mesh > self.max_mesh:
            raise DatasetError("min_mesh must not exceed max_mesh")


def generate(config: PubMedConfig = PubMedConfig()) -> Graph:
    rng = make_rng(config.seed)
    graph = Graph()
    add = graph.add

    journals = [PUBMED_INST_NS.term(f"journal{j}") for j in range(config.journals)]
    authors = [PUBMED_INST_NS.term(f"author{a}") for a in range(config.authors)]
    for index, author in enumerate(authors):
        add(Triple(author, _V.last_name, _LAST_NAMES[index % len(LAST_NAMES)]))

    agencies = [PUBMED_INST_NS.term(f"agency{a}") for a in range(config.agencies)]
    mesh_terms = [Literal(f"MeSH heading {m}") for m in range(config.mesh_pool)]
    chemicals = [Literal(f"chemical {c}") for c in range(config.chemical_pool)]
    mesh_weights = zipf_weights(config.mesh_pool, skew=0.6)
    chem_weights = zipf_weights(config.chemical_pool, skew=0.8)

    grant_counter = 0
    for p in range(config.publications):
        pub = PUBMED_INST_NS.term(f"pmid{p}")
        pub_type = weighted_choice(rng, _PUB_TYPES, PUB_TYPE_WEIGHTS)
        add(Triple(pub, _V.pub_type, pub_type))
        add(Triple(pub, _V.journal, journals[rng.randrange(config.journals)]))
        for _ in range(rng.randint(0, 2)):
            grant = PUBMED_INST_NS.term(f"grant{grant_counter}")
            grant_counter += 1
            agency_index = rng.randrange(config.agencies)
            add(Triple(pub, _V.grant, grant))
            add(Triple(grant, _V.grant_agency, agencies[agency_index]))
            add(
                Triple(
                    grant,
                    _V.grant_country,
                    _COUNTRIES[agency_index % len(COUNTRIES)],
                )
            )
        for author in rng.sample(authors, k=min(rng.randint(1, 5), len(authors))):
            add(Triple(pub, _V.author, author))
        mesh_count = rng.randint(config.min_mesh, config.max_mesh)
        # Draw-ordered dict, not a set: iteration order must be a function
        # of the rng stream, never of PYTHONHASHSEED — triple insertion
        # order reaches the engines' physical layouts (see Graph).
        chosen_mesh: dict[Literal, None] = {}
        while len(chosen_mesh) < mesh_count:
            chosen_mesh[weighted_choice(rng, mesh_terms, mesh_weights)] = None
        for term in chosen_mesh:
            add(Triple(pub, _V.mesh_heading, term))
        for _ in range(rng.randint(0, 6)):
            add(Triple(pub, _V.chemical, weighted_choice(rng, chemicals, chem_weights)))
    return graph


_PRESETS = {
    "tiny": PubMedConfig(publications=120, authors=40, max_mesh=6),
    "paper": PubMedConfig(),
    "large": PubMedConfig(publications=3000, authors=300, journals=80),
}


def preset(name: str) -> PubMedConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise DatasetError(f"unknown pubmed preset {name!r} (known: {known})") from None
