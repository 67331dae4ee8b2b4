"""TG_AgJ aggregates in place: the map task's fold.

A TG_AgJ mapper emits each solution row with its compiled aggregation;
the runner keeps one accumulator tuple per group and map task and steps
it with every row in emission order.  Before the fold, every solution
became an accumulator tuple of its own and a combiner merged a task's
tuples into the first -- the same values, merged in the same order.
A sharded TG_AgJ's partial jobs fold their map tasks the same way.
"""

from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_query
from repro.bench.catalog import CATALOG
from repro.core.query_model import parse_analytical
from repro.core.results import EngineConfig
from repro.datasets import bsbm
from repro.mapreduce.cost import estimate_size
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner, _chunk, _JobInputs, _map_combine, _sort_key
from repro.ntga.physical import load_triplegroups
from repro.ntga.planner import plan_rapid_analytics
from repro.rdf.terms import XSD_DOUBLE, Literal
from repro.shard.execution import ShardedExecutor, _exchange_file, _partial_out
from repro.shard.partition import PARTITIONERS
from repro.sparql.aggregates import AccumulatorTuple, accumulator_factory
from repro.sparql.expressions import term_value

ROW_WIDTH = 3


@pytest.fixture(scope="module")
def agg_fold(product_graph, mg1_style_query):
    """The (zero, step) of a planned TG_AgJ job."""
    store = load_triplegroups(product_graph, HDFS())
    plan = plan_rapid_analytics(parse_analytical(mg1_style_query), store)
    (job,) = [job for job in plan.jobs if "TG_AgJ" in job.labels]
    return job.fold


def parent_partial(item) -> AccumulatorTuple:
    """What the TG_AgJ mapper emitted per solution before the fold."""
    (factories, input_slots), row = item
    accumulators = [factory() for factory in factories]
    for accumulator, slot in zip(accumulators, input_slots):
        if slot < 0:
            accumulator.update(None)
            continue
        if row[slot] is not None:
            accumulator.update(term_value(row[slot]))
    return AccumulatorTuple(accumulators)


def parent_combine(chunk) -> list:
    """The parent's combiner over one task: per-solution tuples grouped
    by key, each group merged into its first, keys in shuffle order."""
    grouped: dict = {}
    for key, item in chunk:
        grouped.setdefault(key, []).append(parent_partial(item))
    combined = []
    for key in sorted(grouped, key=_sort_key):
        merged, *rest = grouped[key]
        for partial in rest:
            merged.merge(partial)
        combined.append((key, merged))
    return combined


def rendered(pairs) -> list:
    """Bit for bit: every accumulator's partial state and result, as repr."""
    return [
        (key, [(repr(a.partial()), repr(a.result())) for a in partial.accumulators])
        for key, partial in pairs
    ]


_literals = st.one_of(
    st.integers(-(2**70), 2**70).map(Literal.from_python),
    st.floats(allow_nan=False).map(lambda f: Literal(repr(f), XSD_DOUBLE)),
    st.sampled_from(["-0.0", "0.0", "1e308", "-1e308", "5e-324"]).map(
        lambda text: Literal(text, XSD_DOUBLE)
    ),
)
_aggregates = st.tuples(
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
    st.booleans(),
    st.integers(-1, ROW_WIDTH - 1),
).filter(lambda spec: spec[2] >= 0 or spec[0] == "COUNT")


@settings(max_examples=120, deadline=None)
@given(
    specs=st.lists(_aggregates, min_size=1, max_size=4),
    emissions=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.one_of(st.none(), _literals), min_size=ROW_WIDTH, max_size=ROW_WIDTH),
        ),
        max_size=40,
    ),
    tasks=st.integers(1, 6),
)
def test_the_fold_equals_per_solution_partials_merged_into_the_first(
    agg_fold, specs, emissions, tasks
):
    aggregation = (
        tuple(accumulator_factory(func, distinct) for func, distinct, _ in specs),
        tuple(slot for _, _, slot in specs),
    )
    pairs = [((0, (Literal.from_python(group),)), (aggregation, row)) for group, row in emissions]
    job = MapReduceJob(
        name="fold", inputs=("in",), output="out", mapper=lambda pair: (pair,),
        reducer=lambda key, values: (), fold=agg_fold,
    )
    inputs = _JobInputs(pairs, job.mapper, tasks, 0, 0, 0, 0)
    counters = Counters()
    folded = _map_combine(job, inputs, counters)
    expected = [pair for chunk in _chunk(pairs, tasks) for pair in parent_combine(chunk)]
    assert rendered(folded) == rendered(expected)
    assert counters["combine_input_records"] == len(pairs)
    assert counters["combine_output_records"] == len(folded)


# -- the allocation guard --------------------------------------------------------


def count_accumulator_tuples(run):
    """``run()`` with the accumulator tuples it builds counted -- those a
    fold's ``zero`` (or a partial of one) starts, not the reducers' copies."""
    built = {"tuples": 0, "copies": 0}
    init, copy = AccumulatorTuple.__init__, AccumulatorTuple.copy

    def counting_init(self, accumulators):
        built["tuples"] += 1
        init(self, accumulators)

    def counting_copy(self):
        built["copies"] += 1
        return copy(self)

    with patch.object(AccumulatorTuple, "__init__", counting_init), patch.object(
        AccumulatorTuple, "copy", counting_copy
    ):
        result = run()
    return result, built["tuples"] - built["copies"]


@pytest.fixture(scope="module", params=[60, 180], ids=["60-products", "180-products"])
def bsbm_graph(request):
    return bsbm.generate(
        bsbm.BSBMConfig(products=request.param, vendors=8, offers_per_product=2)
    )


QIDS = ("MG1", "MG2", "MG3", "MG4")


def test_one_accumulator_tuple_per_group_and_map_task(bsbm_graph):
    def run():
        return [run_query(CATALOG[qid].sparql, bsbm_graph) for qid in QIDS]

    reports, built = count_accumulator_tuples(run)
    counters = [report.stats.counters for report in reports]
    combined = sum(c["combine_output_records"] for c in counters)
    emitted = sum(c["combine_input_records"] for c in counters)
    assert built == combined
    assert combined < emitted


def run_sharded(graph, qid, config):
    """Run *qid* through the sharded driver; its HDFS, TG_AgJ job and stats."""
    hdfs = HDFS()
    store = load_triplegroups(graph, hdfs)
    plan = plan_rapid_analytics(parse_analytical(CATALOG[qid].sparql), store)
    stats = ShardedExecutor(MapReduceRunner(hdfs), store, graph, config).run(plan.jobs)
    (agg_join,) = [job for job in plan.jobs if "TG_AgJ" in job.labels]
    return hdfs, agg_join, stats


def test_a_sharded_partial_job_ships_at_most_one_partial_per_key_and_map_task(bsbm_graph):
    """Each shard's TG_AgJ partial job folds its map tasks as the single
    cluster does: every accumulator tuple it builds is shipped, and no
    key is shipped more often than the job has map tasks."""
    shipped_total = emitted_total = 0
    for qid in QIDS:
        (hdfs, agg_join, stats), built = count_accumulator_tuples(
            lambda: run_sharded(bsbm_graph, qid, EngineConfig(shards=2))
        )
        jobs = {job.name: job for job in stats.jobs}
        shipped = 0
        for shard in range(2):
            pairs = hdfs.read(_partial_out(agg_join.output, shard)).records
            job = jobs[f"{agg_join.name}@s{shard}"]
            assert job.output_records == len(pairs)
            per_key = Counter(key for key, _ in pairs)
            assert max(per_key.values(), default=0) <= job.map_tasks, qid
            shipped += len(pairs)
        emitted = stats.counters["combine_input_records"]
        assert built == shipped <= emitted, qid
        shipped_total += shipped
        emitted_total += emitted
    assert shipped_total < emitted_total


@pytest.mark.parametrize("shards", [2, 4])
def test_the_sharded_assemble_shuffle_is_at_most_n_unsharded_folds(bsbm_graph, shards):
    """What a sharded TG_AgJ's assemble jobs shuffle -- each partial's
    key and accumulators -- is at most N times what the unsharded folded
    job shuffles: each of the N shards ships at most one partial per key
    and map task.  (Each pair also carries its order tag; that framing
    is accounted in the same shuffle, and checked to be all the rest.)"""
    for qid in QIDS:
        unsharded = run_query(CATALOG[qid].sparql, bsbm_graph)
        (folded,) = [job for job in unsharded.stats.jobs if "TG_AgJ" in job.labels]
        for partitioner in PARTITIONERS:
            config = EngineConfig(shards=shards, partitioner=partitioner)
            hdfs, agg_join, stats = run_sharded(bsbm_graph, qid, config)
            pairs = [
                pair
                for shard in range(shards)
                for pair in hdfs.read(_exchange_file(agg_join.output, shard)).records
            ]
            shuffled = sum(
                job.shuffle_bytes
                for job in stats.jobs
                if job.name.startswith(f"{agg_join.name}@r")
            )
            partials = sum(
                estimate_size(key) + estimate_size(record.payload) for key, record in pairs
            )
            framing = sum(8 + estimate_size(record.order) for _, record in pairs)
            assert shuffled == partials + framing, (qid, partitioner)
            assert partials <= shards * folded.shuffle_bytes, (qid, partitioner)
