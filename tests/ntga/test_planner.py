"""NTGA planner tests: plan shapes and workflow wiring."""

import pytest

from repro.bench.catalog import CATALOG
from repro.core.query_model import parse_analytical
from repro.core.results import EngineConfig
from repro.errors import OverlapError
from repro.mapreduce.hdfs import HDFS
from repro.ntga.physical import load_triplegroups
from repro.ntga.planner import (
    build_result_join,
    plan_batch,
    plan_rapid_analytics,
    plan_rapid_plus,
)
from repro.bench.arms import DEFAULT_QUERIES as PLANNER_AB_QUERIES
from repro.plan.enumerator import plan_adaptive
from repro.rdf.stats import cached_profile


@pytest.fixture
def store(product_graph):
    return load_triplegroups(product_graph, HDFS())


def analytical(mg1_style_query):
    return parse_analytical(mg1_style_query)


class TestRapidAnalyticsPlan:
    def test_mg1_shape(self, store, mg1_style_query):
        plan = plan_rapid_analytics(parse_analytical(mg1_style_query), store)
        # 1 α-join + 1 fused Agg-Join + 1 map-only TG_Join (Figure 6(b)).
        assert len(plan.jobs) == 3
        assert "alpha-join" in plan.jobs[0].name
        assert "agg-join" in plan.jobs[1].name
        assert "final-join" in plan.jobs[2].name
        assert plan.final_join_index == 2
        assert plan.jobs[2].is_map_only

    def test_only_the_agg_job_folds_in_its_map_tasks(self, store, mg1_style_query):
        plan = plan_rapid_analytics(parse_analytical(mg1_style_query), store)
        alpha_job, agg_job, final_job = plan.jobs
        assert agg_job.fold is not None  # mapper-side hash aggregation
        assert alpha_job.fold is None and final_job.fold is None

    def test_single_grouping_two_jobs(self, store):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?f (COUNT(?pr) AS ?c) {
              ?p a ex:PT1 ; ex:feature ?f .
              ?o ex:product ?p ; ex:price ?pr .
            } GROUP BY ?f
            """
        )
        plan = plan_rapid_analytics(query, store)
        assert len(plan.jobs) == 2
        assert plan.final_join_index is None

    def test_single_star_single_job(self, store):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?f (COUNT(?f) AS ?c) { ?p a ex:PT1 ; ex:feature ?f . } GROUP BY ?f
            """
        )
        plan = plan_rapid_analytics(query, store)
        assert len(plan.jobs) == 1  # filter fused into the Agg-Join map phase

    def test_non_overlapping_falls_back_to_sequential(self, store):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?a ?b {
              { SELECT (COUNT(?x) AS ?a) { ?s ex:ve ?v . ?v ex:cn ?x . } }
              { SELECT (COUNT(?y) AS ?b) { ?s2 ex:ve ?w . ?t ex:cn ?w . } }
            }
            """
        )
        plan = plan_rapid_analytics(query, store)
        assert "sequential" in plan.description

    def test_three_overlapping_subqueries_use_nway_composite(self, store):
        """The n-way extension: three identical patterns share one plan
        (one fused Agg-Join, one final join — no per-subquery pipelines)."""
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?a ?b ?c {
              { SELECT (COUNT(?x) AS ?a) { ?s ex:label ?x . } }
              { SELECT (COUNT(?y) AS ?b) { ?t ex:label ?y . } }
              { SELECT (COUNT(?z) AS ?c) { ?u ex:label ?z . } }
            }
            """
        )
        plan = plan_rapid_analytics(query, store)
        assert "sequential" not in plan.description
        assert len(plan.jobs) == 2  # fused Agg-Join + map-only final join

    def test_three_non_overlapping_subqueries_fall_back(self, store):
        query = parse_analytical(
            """
            PREFIX ex: <http://ex.org/>
            SELECT ?a ?b ?c {
              { SELECT (COUNT(?x) AS ?a) { ?s ex:ve ?v . ?v ex:cn ?x . } }
              { SELECT (COUNT(?y) AS ?b) { ?s2 ex:ve ?w . ?t ex:cn ?w . } }
              { SELECT (COUNT(?z) AS ?c) { ?u ex:label ?z . } }
            }
            """
        )
        plan = plan_rapid_analytics(query, store)
        assert "sequential" in plan.description


class TestRapidPlusPlan:
    def test_mg1_shape(self, store, mg1_style_query):
        plan = plan_rapid_plus(parse_analytical(mg1_style_query), store)
        # Per subquery: 1 join + 1 agg; plus the map-only final join.
        assert len(plan.jobs) == 5
        assert plan.final_join_index == 4
        assert plan.jobs[4].is_map_only

    def test_job_inputs_resolve(self, store, product_graph, mg1_style_query):
        """Every planned input path either exists already (EC files) or is
        produced by an earlier job in the plan."""
        plan = plan_rapid_plus(parse_analytical(mg1_style_query), store)
        hdfs_paths = set()
        for ec_path in store.paths_by_class.values():
            hdfs_paths.add(ec_path)
        hdfs_paths.add(store.empty_path)
        for job in plan.jobs:
            for path in job.inputs + job.side_inputs:
                assert path in hdfs_paths or any(
                    earlier.output == path for earlier in plan.jobs
                ), f"unresolved input {path}"
            hdfs_paths.add(job.output)


class TestStorePaths:
    def test_ec_selection(self, store):
        from repro.core.query_model import PropKey
        from repro.rdf.terms import IRI

        price = frozenset({PropKey(IRI("http://ex.org/price"))})
        paths = store.paths_for(price)
        assert paths and all(path != store.empty_path for path in paths)

    def test_unknown_property_yields_empty_placeholder(self, store):
        from repro.core.query_model import PropKey
        from repro.rdf.terms import IRI

        nothing = frozenset({PropKey(IRI("http://ex.org/zzz"))})
        assert store.paths_for(nothing) == (store.empty_path,)


class TestPlanBatch:
    """Cross-request MQO batching: canonical-fingerprint dedup and
    deterministic compilation."""

    AVG_VARIANT = """
    PREFIX ex: <http://ex.org/>
    SELECT ?f ?avgF ?sumT ?cntT {
      { SELECT ?f (AVG(?pr2) AS ?avgF) {
          ?p2 a ex:PT1 ; ex:label ?l2 ; ex:feature ?f .
          ?o2 ex:product ?p2 ; ex:price ?pr2 .
        } GROUP BY ?f
      }
      { SELECT (SUM(?pr) AS ?sumT) (COUNT(?pr) AS ?cntT) {
          ?p1 a ex:PT1 ; ex:label ?l1 .
          ?o1 ex:product ?p1 ; ex:price ?pr .
        }
      }
    }
    """

    def batch(self, store, texts):
        from repro.ntga.planner import plan_batch

        return plan_batch([parse_analytical(text) for text in texts], store)

    def test_identical_queries_share_every_slot(self, store, mg1_style_query):
        plan = self.batch(store, [mg1_style_query, mg1_style_query])
        # Both queries map onto the same two merged subquery slots.
        assert plan.merged_ids == [(0, 1), (0, 1)]

    def test_shared_subqueries_collapse_across_variants(
        self, store, mg1_style_query
    ):
        plan = self.batch(store, [mg1_style_query, self.AVG_VARIANT])
        first, second = plan.merged_ids
        assert first == (0, 1)
        # The AVG aggregation is new; the total roll-up is shared.
        assert second == (2, 1)

    def test_repeated_subquery_keeps_multiplicity(self, store, mg1_style_query):
        from dataclasses import replace

        query = parse_analytical(mg1_style_query)
        from repro.ntga.planner import plan_batch

        doubled = replace(
            query, subqueries=(query.subqueries[0], query.subqueries[0])
        )
        plan = plan_batch([query, doubled], store)
        # The doubled query claims two *distinct* slots for its repeated
        # subquery — per-query multiplicity survives the dedup.
        assert plan.merged_ids[0] == (0, 1)
        assert plan.merged_ids[1][0] == 0
        assert plan.merged_ids[1][1] not in (0, 1)

    def test_compilation_is_deterministic(self, store, mg1_style_query):
        texts = [mg1_style_query, self.AVG_VARIANT, mg1_style_query]
        one = self.batch(store, texts)
        two = self.batch(store, texts)
        assert [job.name for job in one.jobs] == [job.name for job in two.jobs]
        assert one.merged_ids == two.merged_ids
        assert one.outputs == two.outputs
        assert one.split_index == two.split_index
        assert one.description == two.description


def shape(plan):
    """What a plan asks the runner to do, job for job."""
    return [
        (job.name, job.inputs, job.side_inputs, job.output, job.labels)
        for job in plan.jobs
    ]


@pytest.fixture(scope="module")
def catalog_stores(bsbm_small, chem_tiny, pubmed_tiny):
    graphs = {"bsbm": bsbm_small, "chem": chem_tiny, "pubmed": pubmed_tiny}
    return {name: load_triplegroups(graph, HDFS()) for name, graph in graphs.items()}


class TestOnePlanShape:
    """A solo query is a batch of one; every result join is one builder
    (DESIGN.md, "One plan shape")."""

    @pytest.mark.parametrize("qid", sorted(CATALOG))
    def test_a_solo_plan_is_the_batch_of_one(self, qid, catalog_stores):
        query = parse_analytical(CATALOG[qid].sparql)
        store = catalog_stores[CATALOG[qid].dataset]
        solo = plan_rapid_analytics(query, store)
        try:
            batch = plan_batch([query], store, prefix="ra")
        except OverlapError:
            assert shape(solo) == shape(plan_rapid_plus(query, store, prefix="ra"))
            return
        assert shape(solo) == shape(batch)
        assert (solo.outputs, solo.split_index, solo.description) == (
            batch.outputs,
            batch.split_index,
            batch.description,
        )
        assert solo.merged_ids == [tuple(range(len(query.subqueries)))]
        # The solo view of the record: the cut.
        assert solo.final_join_index == (
            solo.split_index if shape(solo)[-1][-1] == ("TG_Join",) else None
        )

    OUTER_BIND = """
    PREFIX ex: <http://ex.org/>
    SELECT ?f ?avg {
      { SELECT ?f (SUM(?pr) AS ?s) (COUNT(?pr) AS ?c) {
          ?p a ex:PT1 ; ex:feature ?f .
          ?o ex:product ?p ; ex:price ?pr .
        } GROUP BY ?f
      }
    }
    """.replace("?f ?avg {", "?f (?s / ?c AS ?avg) {")

    #: What is charged must not move: a shared TG_AgJ file is side-loaded
    #: even when it is also the stream (so the fused plan reads its agg
    #: file twice, which ``plan.enumerator`` prices on purpose); a whole
    #: file only when it is not the stream.
    RESULT_JOIN_SHAPES = {
        "fused two-id": (
            [("agg", 0), ("agg", 1)], ("agg",), ("agg",)
        ),
        "single id + outer BIND": (
            [("agg", 0)], ("agg",), ("agg",)
        ),
        "unfused ablation": (
            [("agg0", 0), ("agg1", 1)], ("agg0",), ("agg0", "agg1")
        ),
        "whole files, streamed=0": (
            [("sq0", None), ("sq1", None), ("sq2", None)], ("sq0",), ("sq1", "sq2")
        ),
        "whole files, streamed=1": (
            [("sq1", None), ("sq0", None), ("sq2", None)], ("sq1",), ("sq0", "sq2")
        ),
    }

    @pytest.mark.parametrize("label", RESULT_JOIN_SHAPES)
    def test_result_join_inputs_per_source_shape(self, label, mg1_style_query):
        sources, inputs, side_inputs = self.RESULT_JOIN_SHAPES[label]
        job = build_result_join(
            "join", parse_analytical(mg1_style_query), sources, "result"
        )
        assert (job.inputs, job.side_inputs) == (inputs, side_inputs)
        assert job.is_map_only and job.labels == ("TG_Join",)

    def test_the_planners_hand_the_result_join_those_shapes(
        self, store, mg1_style_query
    ):
        mg1 = parse_analytical(mg1_style_query)
        planned = {
            "fused two-id": plan_rapid_analytics(mg1, store),
            "single id + outer BIND": plan_rapid_analytics(
                parse_analytical(self.OUTER_BIND), store
            ),
            "unfused ablation": plan_rapid_analytics(
                mg1, store, fuse_aggregations=False
            ),
            "whole files, streamed=0": plan_rapid_plus(mg1, store),
            "whole files, streamed=1": plan_rapid_plus(mg1, store, streamed=1),
        }
        joins = {
            label: (plan.jobs[plan.final_join_index].inputs,
                    plan.jobs[plan.final_join_index].side_inputs)
            for label, plan in planned.items()
        }
        assert joins == {
            "fused two-id": (("ra/agg",), ("ra/agg",)),
            "single id + outer BIND": (("ra/agg",), ("ra/agg",)),
            "unfused ablation": (("ra/agg0",), ("ra/agg0", "ra/agg1")),
            "whole files, streamed=0": (("rp/sq0/agg",), ("rp/sq1/agg",)),
            "whole files, streamed=1": (("rp/sq1/agg",), ("rp/sq0/agg",)),
        }

    @pytest.mark.parametrize("qid", PLANNER_AB_QUERIES)
    def test_streamed_rapid_plus_is_the_rotated_final_join(
        self, qid, catalog_stores, bsbm_small
    ):
        """``sequential:stream=k`` used to be job surgery on a finished
        plan: the final join cut out and one that streams file *k* and
        side-loads the rest, in order, spliced in."""
        query = parse_analytical(CATALOG[qid].sparql)
        store = catalog_stores["bsbm"]
        base = plan_rapid_plus(query, store)
        files = [path for _plan, path in base.defaults_by_plan]
        assert len(files) > 1
        for streamed in range(len(files)):
            plan = plan_rapid_plus(query, store, streamed=streamed)
            assert shape(plan)[:-1] == shape(base)[:-1]
            assert shape(plan)[-1] == (
                "rp:final-join",
                (files[streamed],),
                tuple(path for path in files if path != files[streamed]),
                "rp/result",
                ("TG_Join",),
            )
            assert plan.description == base.description + (
                f"; final join streams subquery {streamed}" if streamed else ""
            )
            name = f"sequential:stream={streamed}" if streamed else "sequential"
            # ... and it is the plan the cost planner runs under that name.
            candidate = plan_adaptive(
                query, store, cached_profile(bsbm_small), EngineConfig(), "cost", decision=name
            )
            assert candidate.choice.chosen == name
            assert shape(candidate) == shape(plan)
            assert candidate.description == plan.description
