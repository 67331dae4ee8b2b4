"""Synthetic BSBM Business Intelligence dataset generator.

Generates the slice of the Berlin SPARQL Benchmark's e-commerce schema
the BI use case queries touch: typed products with labels and features,
producers, vendors with countries, and offers with prices.  The paper's
selectivity knobs are preserved by construction:

* **ProductType1** is low-selectivity (a large share of products) and
  **ProductType9** is high-selectivity (a small share), matching the
  G1/G3 (lo) vs G2/G4 (hi) contrast;
* products carry 1-4 features from a shared pool (multi-valued);
* every offer links one product and one vendor; vendors have countries.

Scale with ``BSBMConfig.products`` — the paper's BSBM-500K and BSBM-2M
correspond to the ``scale="500k"`` / ``scale="2m"`` presets at
simulation scale (see :func:`preset`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.datasets.seeds import make_rng, weighted_choice, zipf_weights
from repro.errors import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.namespaces import BSBM_INST_NS, BSBM_NS
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import RDF_TYPE, Triple

#: Share of products per type; index 0 is ProductType1 (low selectivity,
#: the bulk of the catalog), the last entry ProductType9 (high
#: selectivity).  Chosen to mirror BSBM's type-hierarchy fanout.
_TYPE_SHARES = (0.40, 0.15, 0.12, 0.10, 0.08, 0.06, 0.05, 0.025, 0.015)

COUNTRIES = ("US", "UK", "DE", "FR", "JP", "CN", "RU", "AT", "ES", "KR")


@dataclass(frozen=True)
class BSBMConfig:
    """Generator knobs (defaults give a laptop-scale dataset)."""

    products: int = 200
    feature_pool: int = 30
    producers: int = 12
    vendors: int = 20
    offers_per_product: int = 4
    min_features: int = 1
    max_features: int = 4
    seed: int = 20160315  # EDBT 2016 opening day

    def __post_init__(self) -> None:
        if self.products <= 0:
            raise DatasetError("products must be positive")
        if self.min_features > self.max_features:
            raise DatasetError("min_features must not exceed max_features")
        if self.vendors <= 0 or self.producers <= 0 or self.feature_pool <= 0:
            raise DatasetError("entity pool sizes must be positive")


def product_type(index: int) -> IRI:
    return BSBM_NS.term(f"ProductType{index}")


#: The vocabulary, built once: ``BSBM_NS.price`` builds a new IRI on
#: every access, and a load mentions each property once per triple.
_PRODUCT_TYPES = tuple(product_type(i) for i in range(1, len(_TYPE_SHARES) + 1))
_COUNTRY_IRIS = tuple(IRI(f"http://downlode.org/rdf/iso-3166/countries#{c}") for c in COUNTRIES)
_V = SimpleNamespace(**{
    name: BSBM_NS.term(name)
    for name in ("country", "vendorLabel", "producerLabel", "label", "producer",
                 "productFeature", "product", "price", "vendor", "validTo")
})


def generate(config: BSBMConfig = BSBMConfig()) -> Graph:
    """Generate a BSBM-BI graph."""
    rng = make_rng(config.seed)
    graph = Graph()
    add = graph.add

    vendors = [BSBM_INST_NS.term(f"Vendor{v}") for v in range(config.vendors)]
    for v, vendor in enumerate(vendors):
        add(Triple(vendor, _V.country, _COUNTRY_IRIS[v % len(COUNTRIES)]))
        add(Triple(vendor, _V.vendorLabel, Literal(f"vendor {v}")))

    producers = [BSBM_INST_NS.term(f"Producer{p}") for p in range(config.producers)]
    for p, producer in enumerate(producers):
        add(Triple(producer, _V.producerLabel, Literal(f"producer {p}")))

    type_weights = list(_TYPE_SHARES)
    feature_weights = zipf_weights(config.feature_pool, skew=0.7)
    features = [BSBM_INST_NS.term(f"ProductFeature{f}") for f in range(config.feature_pool)]

    offer_counter = 0
    for p in range(config.products):
        product = BSBM_INST_NS.term(f"Product{p}")
        # The first len(_TYPE_SHARES) products deterministically cover every
        # type so high-selectivity queries (ProductType9) are never empty.
        if p < len(_PRODUCT_TYPES):
            type_iri = _PRODUCT_TYPES[p]
        else:
            type_iri = weighted_choice(rng, _PRODUCT_TYPES, type_weights)
        add(Triple(product, RDF_TYPE, type_iri))
        add(Triple(product, _V.label, Literal(f"product {p}")))
        add(Triple(product, _V.producer, producers[p % config.producers]))
        feature_count = rng.randint(config.min_features, config.max_features)
        # Draw-ordered dict, not a set: iteration order must be a function
        # of the rng stream, never of PYTHONHASHSEED — triple insertion
        # order reaches the engines' physical layouts (see Graph).
        chosen: dict[IRI, None] = {}
        while len(chosen) < feature_count:
            chosen[weighted_choice(rng, features, feature_weights)] = None
        for feature in chosen:
            add(Triple(product, _V.productFeature, feature))
        for _ in range(config.offers_per_product):
            offer = BSBM_INST_NS.term(f"Offer{offer_counter}")
            offer_counter += 1
            vendor = vendors[rng.randrange(config.vendors)]
            price = rng.randint(10, 10000)
            add(Triple(offer, _V.product, product))
            add(Triple(offer, _V.price, Literal.from_python(price)))
            add(Triple(offer, _V.vendor, vendor))
            add(Triple(offer, _V.validTo, Literal(f"2016-{1 + rng.randrange(12):02d}-01")))
    return graph


#: Scaled-down presets standing in for the paper's dataset sizes.  The
#: 2M preset is 4x the 500K preset, matching the paper's scale ratio.
_PRESETS = {
    "tiny": BSBMConfig(products=60, vendors=8, offers_per_product=2),
    "500k": BSBMConfig(products=400, vendors=20, offers_per_product=4),
    "2m": BSBMConfig(products=1600, vendors=40, offers_per_product=4),
}


def preset(name: str) -> BSBMConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise DatasetError(f"unknown BSBM preset {name!r} (known: {known})") from None
