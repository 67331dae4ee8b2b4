"""Synthetic benchmark dataset generators (BSBM-BI, Chem2Bio2RDF, PubMed)."""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from repro.errors import DatasetError

if TYPE_CHECKING:
    from repro.rdf.graph import Graph

__all__ = ["generate"]

_GENERATORS = {"bsbm": "bsbm", "chem": "chem2bio2rdf", "pubmed": "pubmed"}


def generate(dataset: str, preset: str) -> Graph:
    """The synthetic graph a ``(dataset, preset)`` pair names — how every
    report and golden records the data it ran on."""
    try:
        name = _GENERATORS[dataset]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {dataset!r} (known: {', '.join(_GENERATORS)})"
        ) from None
    module = import_module(f"{__name__}.{name}")
    return module.generate(module.preset(preset))
