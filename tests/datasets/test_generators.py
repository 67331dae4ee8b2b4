"""Dataset generator tests: determinism, schema coverage, selectivity."""

import pytest

from repro.datasets import bsbm, chem2bio2rdf, pubmed
from repro.datasets.seeds import make_rng, weighted_choice, zipf_weights
from repro.errors import DatasetError
from repro.rdf.namespaces import BSBM_NS, CHEM_NS, PUBMED_NS
from repro.rdf.terms import Literal
from repro.rdf.triples import RDF_TYPE


class TestSeeds:
    def test_zipf_weights_sum_to_one(self):
        weights = zipf_weights(10)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zipf_rejects_empty(self):
        with pytest.raises(DatasetError):
            zipf_weights(0)

    def test_weighted_choice_deterministic(self):
        items = ["a", "b", "c"]
        weights = zipf_weights(3)
        assert weighted_choice(make_rng(1), items, weights) == weighted_choice(
            make_rng(1), items, weights
        )


class TestBSBM:
    def test_deterministic(self):
        config = bsbm.BSBMConfig(products=50, seed=11)
        assert set(bsbm.generate(config)) == set(bsbm.generate(config))

    def test_different_seeds_differ(self):
        a = bsbm.generate(bsbm.BSBMConfig(products=50, seed=1))
        b = bsbm.generate(bsbm.BSBMConfig(products=50, seed=2))
        assert set(a) != set(b)

    def test_every_type_represented(self):
        graph = bsbm.generate(bsbm.BSBMConfig(products=20))
        for index in range(1, 10):
            assert graph.subjects(RDF_TYPE, bsbm.product_type(index)), index

    def test_type_selectivity_ordering(self):
        graph = bsbm.generate(bsbm.BSBMConfig(products=600))
        type1 = len(graph.subjects(RDF_TYPE, bsbm.product_type(1)))
        type9 = len(graph.subjects(RDF_TYPE, bsbm.product_type(9)))
        assert type1 > 5 * type9  # lo vs hi selectivity

    def test_offer_structure(self):
        config = bsbm.BSBMConfig(products=30, offers_per_product=3)
        graph = bsbm.generate(config)
        offers = graph.subjects(BSBM_NS.product)
        assert len(offers) == 90
        # Every offer has a price and a vendor.
        for offer in list(offers)[:10]:
            assert graph.objects(offer, BSBM_NS.price)
            assert graph.objects(offer, BSBM_NS.vendor)

    def test_feature_multivalued(self):
        graph = bsbm.generate(bsbm.BSBMConfig(products=200, min_features=2, max_features=4))
        counts = [
            len(graph.objects(product, BSBM_NS.productFeature))
            for product in graph.subjects(BSBM_NS.label)
            if graph.objects(product, BSBM_NS.productFeature)
        ]
        assert counts and min(counts) >= 2

    def test_presets_scale(self):
        small = bsbm.preset("500k")
        large = bsbm.preset("2m")
        assert large.products == 4 * small.products  # the paper's scale ratio

    def test_unknown_preset(self):
        with pytest.raises(DatasetError):
            bsbm.preset("nope")

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            bsbm.BSBMConfig(products=0)
        with pytest.raises(DatasetError):
            bsbm.BSBMConfig(min_features=5, max_features=2)


class TestChem:
    def test_deterministic(self):
        config = chem2bio2rdf.ChemConfig(seed=5)
        assert set(chem2bio2rdf.generate(config)) == set(chem2bio2rdf.generate(config))

    def test_schema_properties_present(self):
        graph = chem2bio2rdf.generate(chem2bio2rdf.preset("tiny"))
        for prop in (
            CHEM_NS.CID, CHEM_NS.outcome, CHEM_NS.Score, CHEM_NS.gi,
            CHEM_NS.geneSymbol, CHEM_NS.gene, CHEM_NS.DBID, CHEM_NS.Generic_Name,
            CHEM_NS.protein, CHEM_NS.Pathway_name, CHEM_NS.pathwayid,
            CHEM_NS.side_effect, CHEM_NS.cid, CHEM_NS.SwissProt_ID, CHEM_NS.disease,
        ):
            assert prop in graph.properties(), prop

    def test_dexamethasone_exists(self):
        graph = chem2bio2rdf.generate(chem2bio2rdf.preset("tiny"))
        assert graph.subjects(CHEM_NS.Generic_Name, Literal("Dexamethasone"))

    def test_publication_tables_dominate(self):
        """The medline-style tables must be the big ones (G9 narrative)."""
        graph = chem2bio2rdf.generate(chem2bio2rdf.preset("paper"))
        counts = graph.property_counts()
        assert counts[CHEM_NS.gene] > counts[CHEM_NS.CID]

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            chem2bio2rdf.ChemConfig(compounds=0)


class TestPubMed:
    def test_deterministic(self):
        config = pubmed.PubMedConfig(publications=40, seed=3)
        assert set(pubmed.generate(config)) == set(pubmed.generate(config))

    def test_pub_type_selectivity(self):
        graph = pubmed.generate(pubmed.PubMedConfig(publications=600))
        journal = len(graph.subjects(PUBMED_NS.pub_type, Literal("Journal Article")))
        news = len(graph.subjects(PUBMED_NS.pub_type, Literal("News")))
        assert journal > 5 * news  # MG15 (lo) vs MG16 (hi)
        assert news > 0

    def test_mesh_headings_heavily_multivalued(self):
        config = pubmed.PubMedConfig(publications=50, min_mesh=4, max_mesh=12)
        graph = pubmed.generate(config)
        for pub in list(graph.subjects(PUBMED_NS.pub_type))[:10]:
            assert len(graph.objects(pub, PUBMED_NS.mesh_heading)) >= 4

    def test_grants_have_agency_and_country(self):
        graph = pubmed.generate(pubmed.preset("tiny"))
        grants = {o for o in graph.objects(None, PUBMED_NS.grant)}
        assert grants
        for grant in list(grants)[:10]:
            assert graph.objects(grant, PUBMED_NS.grant_agency)
            assert graph.objects(grant, PUBMED_NS.grant_country)

    def test_authors_have_last_names(self):
        graph = pubmed.generate(pubmed.preset("tiny"))
        authors = {o for o in graph.objects(None, PUBMED_NS.author)}
        for author in list(authors)[:10]:
            assert graph.objects(author, PUBMED_NS.last_name)

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            pubmed.PubMedConfig(publications=0)
        with pytest.raises(DatasetError):
            pubmed.PubMedConfig(min_mesh=9, max_mesh=2)
