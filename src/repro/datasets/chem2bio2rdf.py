"""Synthetic Chem2Bio2RDF-style chemogenomics dataset generator.

Models the slice of the Chem2Bio2RDF warehouse the paper's case-study
queries (G5-G9, MG6-MG10) traverse: PubChem bioassays linking compounds
to protein targets (via gi numbers), proteins with gene symbols,
DrugBank drug-gene interactions, KEGG pathways, SIDER side effects, and
Medline-style publications.

The generator preserves the paper's workload-relevant size contrast:
the chemogenomics tables (assays, proteins, interactions, pathways) are
small enough that Hive compiles map-joins for G5-G8, while the
publication tables (``gene`` / ``side_effect`` / ``disease`` on pubs)
are large, forcing full MR cycles on G9/MG9/MG10.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.datasets.seeds import make_rng, weighted_choice, zipf_weights
from repro.errors import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import CHEM_INST_NS, CHEM_NS
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple

SIDE_EFFECTS = (
    "hepatomegaly",
    "nausea",
    "headache",
    "dizziness",
    "rash",
    "fatigue",
    "anemia",
    "insomnia",
)

PATHWAY_NAMES = (
    "MAPK signaling pathway",
    "Apoptosis",
    "Cell cycle",
    "Calcium signaling pathway",
    "Wnt signaling pathway",
    "p53 signaling pathway",
)

DRUG_NAMES = (
    "Dexamethasone",
    "Ibuprofen",
    "Metformin",
    "Warfarin",
    "Atorvastatin",
    "Omeprazole",
    "Lisinopril",
    "Sertraline",
)

DISEASES = (
    "Tuberculosis",
    "HIV",
    "Alzheimer",
    "Diabetes",
    "Hypertension",
    "Asthma",
)


#: The vocabulary, built once: ``CHEM_NS.gi`` builds a new IRI on every
#: access, and a load mentions each property once per triple.
_V = SimpleNamespace(**{name: CHEM_NS.term(name) for name in (
    "geneSymbol", "gene", "gi", "CID", "outcome", "Score",
    "Generic_Name", "DBID", "SwissProt_ID", "Pathway_name", "pathwayid", "protein",
    "side_effect", "cid", "disease",
)})
_SIDE_EFFECTS = tuple(map(Literal, SIDE_EFFECTS))
_PATHWAY_NAMES = tuple(map(Literal, PATHWAY_NAMES))
_DRUG_NAMES = tuple(map(Literal, DRUG_NAMES))
_DISEASES = tuple(map(Literal, DISEASES))
_OUTCOME_ACTIVE, _OUTCOME_INACTIVE = Literal("active"), Literal("inactive")


@dataclass(frozen=True)
class ChemConfig:
    """Generator knobs.

    ``publications`` drives the large Medline-style tables; the
    remaining pools stay small (the map-join-friendly VP relations).
    """

    compounds: int = 60
    assays: int = 240
    proteins: int = 40
    genes: int = 30
    drugs: int = 24
    interactions: int = 80
    targets: int = 50
    pathways: int = 12
    siders: int = 90
    publications: int = 1200
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("compounds", "assays", "proteins", "genes", "drugs"):
            if getattr(self, name) <= 0:
                raise DatasetError(f"{name} must be positive")


def generate(config: ChemConfig = ChemConfig()) -> Graph:
    rng = make_rng(config.seed)
    graph = Graph()
    add = graph.add

    cids = [CHEM_INST_NS.term(f"cid{c}") for c in range(config.compounds)]
    gis = [CHEM_INST_NS.term(f"gi{g}") for g in range(config.proteins)]
    symbols = [Literal(f"GENE{g}") for g in range(config.genes)]
    drugs = [CHEM_INST_NS.term(f"drug{d}") for d in range(config.drugs)]
    proteins = [CHEM_INST_NS.term(f"protein{p}") for p in range(config.proteins)]
    gene_nodes = [CHEM_INST_NS.term(f"gene{g}") for g in range(config.genes)]

    # Gene nodes carry the symbol vocabulary (publication queries join
    # publications to genes through these).
    for node, symbol in zip(gene_nodes, symbols):
        add(Triple(node, _V.geneSymbol, symbol))

    # Proteins: gi number + gene symbol (PubChem-to-UniProt bridge).
    for index, protein in enumerate(proteins):
        add(Triple(protein, _V.gi, gis[index]))
        add(Triple(protein, _V.geneSymbol, symbols[index % config.genes]))

    # Bioassays: compound, outcome, score, target gi.
    cid_weights = zipf_weights(config.compounds, skew=0.8)
    for a in range(config.assays):
        assay = CHEM_INST_NS.term(f"assay{a}")
        add(Triple(assay, _V.CID, weighted_choice(rng, cids, cid_weights)))
        add(Triple(assay, _V.outcome, _OUTCOME_ACTIVE if rng.random() < 0.6 else _OUTCOME_INACTIVE))
        add(Triple(assay, _V.Score, Literal.from_python(rng.randint(1, 100))))
        add(Triple(assay, _V.gi, gis[rng.randrange(config.proteins)]))

    # Drugs: generic name + associated compound.
    for index, drug in enumerate(drugs):
        add(Triple(drug, _V.Generic_Name, _DRUG_NAMES[index % len(DRUG_NAMES)]))
        add(Triple(drug, _V.CID, cids[rng.randrange(config.compounds)]))

    # DrugBank drug-gene interactions.
    for i in range(config.interactions):
        interaction = CHEM_INST_NS.term(f"dgi{i}")
        add(Triple(interaction, _V.gene, symbols[rng.randrange(config.genes)]))
        add(Triple(interaction, _V.DBID, drugs[rng.randrange(config.drugs)]))

    # Drug targets (DrugBank → UniProt).
    for t in range(config.targets):
        target = CHEM_INST_NS.term(f"target{t}")
        add(Triple(target, _V.DBID, drugs[rng.randrange(config.drugs)]))
        add(Triple(target, _V.SwissProt_ID, proteins[rng.randrange(config.proteins)]))

    # KEGG pathways with protein membership (multi-valued).
    for p in range(config.pathways):
        pathway = CHEM_INST_NS.term(f"pathway{p}")
        add(Triple(pathway, _V.Pathway_name, _PATHWAY_NAMES[p % len(PATHWAY_NAMES)]))
        add(Triple(pathway, _V.pathwayid, CHEM_INST_NS.term(f"pid{p}")))
        for protein in rng.sample(proteins, k=min(rng.randint(3, 8), len(proteins))):
            add(Triple(pathway, _V.protein, protein))

    # SIDER side-effect records: effect + compound.
    for s in range(config.siders):
        sider = CHEM_INST_NS.term(f"sider{s}")
        add(Triple(sider, _V.side_effect, _SIDE_EFFECTS[rng.randrange(len(SIDE_EFFECTS))]))
        add(Triple(sider, _V.cid, cids[rng.randrange(config.compounds)]))

    # Medline-style publications: the LARGE tables (gene, side_effect,
    # disease are multi-valued per record).
    for m in range(config.publications):
        pub = CHEM_INST_NS.term(f"pmid{m}")
        for node in rng.sample(gene_nodes, k=min(rng.randint(1, 3), len(gene_nodes))):
            add(Triple(pub, _V.gene, node))
        for _ in range(rng.randint(1, 2)):
            add(Triple(pub, _V.side_effect, _SIDE_EFFECTS[rng.randrange(len(SIDE_EFFECTS))]))
        if rng.random() < 0.7:
            add(Triple(pub, _V.disease, _DISEASES[rng.randrange(len(DISEASES))]))
    return graph


_PRESETS = {
    "tiny": ChemConfig(compounds=20, assays=60, publications=150),
    "paper": ChemConfig(),
    "large": ChemConfig(
        compounds=120, assays=600, proteins=80, genes=60, interactions=200,
        targets=120, siders=220, publications=4000,
    ),
}


def preset(name: str) -> ChemConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise DatasetError(f"unknown chem preset {name!r} (known: {known})") from None
