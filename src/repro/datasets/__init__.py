"""Synthetic benchmark dataset generators (BSBM-BI, Chem2Bio2RDF, PubMed)."""

from repro.datasets import bsbm, chem2bio2rdf, pubmed
from repro.datasets.bsbm import BSBMConfig
from repro.datasets.chem2bio2rdf import ChemConfig
from repro.datasets.pubmed import PubMedConfig
from repro.errors import DatasetError
from repro.rdf.graph import Graph

__all__ = [
    "BSBMConfig",
    "ChemConfig",
    "PubMedConfig",
    "bsbm",
    "chem2bio2rdf",
    "generate",
    "pubmed",
]

_GENERATORS = {"bsbm": bsbm, "chem": chem2bio2rdf, "pubmed": pubmed}


def generate(dataset: str, preset: str) -> Graph:
    """The synthetic graph a ``(dataset, preset)`` pair names — how every
    report and golden records the data it ran on."""
    try:
        module = _GENERATORS[dataset]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {dataset!r} (known: {', '.join(_GENERATORS)})"
        ) from None
    return module.generate(module.preset(preset))
