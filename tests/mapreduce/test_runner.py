"""Unit and property tests for the MapReduce runner."""

import gc
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MapReduceError, TaskFailedError, WorkflowAbortedError
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.cost import ClusterConfig
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner


def make_runner(hdfs=None, fault_plan=None, recovery=None, **cluster_kwargs):
    return MapReduceRunner(
        hdfs or HDFS(),
        ClusterConfig(**cluster_kwargs),
        fault_plan=fault_plan,
        recovery=recovery,
    )


def _add(total, value):
    total[0] += value


#: A running sum as a fold: a map task's partial is a one-element list.
SUM_FOLD = (lambda value: [0], _add)


def _sum(values):
    """Sum raw emissions and folded partials alike."""
    return sum(value if type(value) is int else value[0] for value in values)


def wordcount_job(fold=False):
    return MapReduceJob(
        name="wc",
        inputs=("in",),
        output="out",
        mapper=lambda record: [(record, 1)],
        reducer=lambda key, values: [(key, _sum(values))],
        fold=SUM_FOLD if fold else None,
    )


class TestBasicExecution:
    def test_wordcount(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b", "a", "c", "a"])
        stats = make_runner(hdfs).run_job(wordcount_job())
        assert dict(hdfs.read("out").records) == {"a": 3, "b": 1, "c": 1}
        assert not stats.map_only
        assert stats.input_records == 5

    def test_map_only(self):
        hdfs = HDFS()
        hdfs.write("in", [1, 2, 3])
        job = MapReduceJob(
            name="mo", inputs=("in",), output="out", mapper=lambda r: [r * 10]
        )
        stats = make_runner(hdfs).run_job(job)
        assert stats.map_only
        assert stats.shuffle_bytes == 0
        assert hdfs.read("out").records == [10, 20, 30]

    def test_full_job_requires_kv_pairs(self):
        hdfs = HDFS()
        hdfs.write("in", [1])
        job = MapReduceJob(
            name="bad",
            inputs=("in",),
            output="out",
            mapper=lambda r: [r],  # not a pair
            reducer=lambda k, v: [],
        )
        with pytest.raises(MapReduceError):
            make_runner(hdfs).run_job(job)

    def test_tagged_inputs(self):
        hdfs = HDFS()
        hdfs.write("left", [1])
        hdfs.write("right", [2])
        seen = []
        job = MapReduceJob(
            name="tagged",
            inputs=("left", "right"),
            output="out",
            mapper=lambda pair: seen.append(pair) or [],
            tag_inputs=True,
        )
        make_runner(hdfs).run_job(job)
        assert ("left", 1) in seen and ("right", 2) in seen

    def test_empty_inputs_still_run_one_map_task(self):
        """Regression: a job over only empty intermediates charged zero
        map tasks (and hence a zero-wave map phase)."""
        hdfs = HDFS()
        hdfs.write("empty", [])
        job = MapReduceJob(
            name="noop", inputs=("empty",), output="out", mapper=lambda r: [r]
        )
        stats = make_runner(hdfs).run_job(job)
        assert stats.map_tasks == 1
        assert stats.cost_seconds > 0
        assert hdfs.read("out").records == []

    def test_many_zero_byte_files_share_one_map_task(self):
        """Regression: each zero-byte file charged a whole split, so N
        empty intermediates cost N mappers instead of one."""
        hdfs = HDFS()
        for index in range(20):
            hdfs.write(f"empty/{index}", [])
        job = MapReduceJob(
            name="merge",
            inputs=tuple(f"empty/{index}" for index in range(20)),
            output="out",
            mapper=lambda r: [r],
        )
        stats = make_runner(hdfs).run_job(job)
        assert stats.map_tasks == 1

    def test_map_only_rejects_pair_shaped_output(self):
        """A map-only job whose mapper emits only (key, value) pairs is
        almost always missing its reducer; the error names the producer."""
        hdfs = HDFS()
        hdfs.write("in", ["a", "b"])
        job = MapReduceJob(
            name="halfjoin",
            inputs=("in",),
            output="out",
            mapper=lambda r: [(r, 1)],
        )
        with pytest.raises(MapReduceError) as exc_info:
            make_runner(hdfs).run_job(job)
        message = str(exc_info.value)
        assert "halfjoin" in message
        assert "forget the reducer" in message

    def test_map_only_pair_output_allowed_when_declared(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b"])
        job = MapReduceJob(
            name="pairs-ok",
            inputs=("in",),
            output="out",
            mapper=lambda r: [(r, 1)],
            emits_pairs=True,
        )
        make_runner(hdfs).run_job(job)
        assert hdfs.read("out").records == [("a", 1), ("b", 1)]

    def test_map_only_mixed_output_not_flagged(self):
        """Only an all-pairs output is suspicious; mixed shapes pass."""
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        job = MapReduceJob(
            name="mixed",
            inputs=("in",),
            output="out",
            mapper=lambda r: [(r, 1), r],
        )
        make_runner(hdfs).run_job(job)
        assert hdfs.read("out").records == [("a", 1), "a"]

    def test_side_inputs_with_factory(self):
        hdfs = HDFS()
        hdfs.write("in", [1, 2])
        hdfs.write("lookup", [(1, "one"), (2, "two")])

        def factory(side):
            table = dict(side["lookup"])
            return lambda record: [table[record]]

        job = MapReduceJob(
            name="join",
            inputs=("in",),
            output="out",
            mapper_factory=factory,
            side_inputs=("lookup",),
        )
        stats = make_runner(hdfs).run_job(job)
        assert hdfs.read("out").records == ["one", "two"]
        assert stats.side_input_bytes > 0


class TestJobValidation:
    def test_needs_exactly_one_mapper_kind(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="x", inputs=("a",), output="o")
        with pytest.raises(MapReduceError):
            MapReduceJob(
                name="x",
                inputs=("a",),
                output="o",
                mapper=lambda r: [],
                mapper_factory=lambda side: (lambda r: []),
            )

    def test_side_inputs_need_factory(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(
                name="x", inputs=("a",), output="o", mapper=lambda r: [], side_inputs=("s",)
            )

    def test_map_only_cannot_combine(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(
                name="x",
                inputs=("a",),
                output="o",
                mapper=lambda r: [],
                fold=SUM_FOLD,
            )

    def test_needs_input(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="x", inputs=(), output="o", mapper=lambda r: [])


class TestCombiner:
    """The combine stage is a fold: one partial per key and map task."""

    def test_combiner_reduces_shuffle(self):
        records = ["a"] * 100 + ["b"] * 50
        hdfs1, hdfs2 = HDFS(), HDFS()
        hdfs1.write("in", records)
        hdfs2.write("in", records)
        plain = make_runner(hdfs1, block_size=64).run_job(wordcount_job(fold=False))
        combined = make_runner(hdfs2, block_size=64).run_job(wordcount_job(fold=True))
        assert combined.shuffle_bytes < plain.shuffle_bytes
        assert hdfs1.read("out").records == hdfs2.read("out").records

    def test_counters_count_emissions_in_and_keys_out(self):
        records = ["b", "a", "b", "c", "a", "b"] * 20
        hdfs = HDFS()
        hdfs.write("in", records)
        runner = make_runner(hdfs, block_size=64)
        stats = runner.run_workflow([wordcount_job(fold=True)])
        counters = stats.counters
        tasks = stats.jobs[0].map_tasks
        assert tasks > 1
        assert counters["map_output_records"] == counters["combine_input_records"] == 120
        # Every task sees all three words, so each ships three partials.
        assert counters["combine_output_records"] == 3 * tasks
        assert counters["reduce_input_records"] == 3 * tasks
        assert dict(hdfs.read("out").records) == {"a": 40, "b": 60, "c": 20}

    def test_each_task_steps_its_items_in_emission_order(self):
        hdfs = HDFS()
        hdfs.write("in", list(range(40)))
        seen = []

        def step(partial, item):
            partial.append(item)
            seen.append(item)

        job = MapReduceJob(
            name="order",
            inputs=("in",),
            output="out",
            mapper=lambda record: [(record % 3, record)],
            reducer=lambda key, values: [(key, [item for partial in values for item in partial])],
            fold=(lambda item: [], step),
        )
        make_runner(hdfs, block_size=32).run_job(job)
        assert seen == list(range(40))
        for key, items in hdfs.read("out").records:
            assert items == [item for item in range(40) if item % 3 == key]

    def test_a_folded_mapper_must_emit_pairs(self):
        hdfs = HDFS()
        hdfs.write("in", [1])
        job = MapReduceJob(
            name="bad-fold",
            inputs=("in",),
            output="out",
            mapper=lambda r: [r],
            reducer=lambda k, v: [],
            fold=SUM_FOLD,
        )
        with pytest.raises(MapReduceError, match="bad-fold"):
            make_runner(hdfs).run_job(job)


class TestWorkflow:
    def test_chained_jobs(self):
        hdfs = HDFS()
        hdfs.write("in", list(range(10)))
        job1 = MapReduceJob(
            name="evens", inputs=("in",), output="mid", mapper=lambda r: [r] if r % 2 == 0 else []
        )
        job2 = MapReduceJob(
            name="sum",
            inputs=("mid",),
            output="out",
            mapper=lambda r: [("all", r)],
            reducer=lambda k, v: [sum(v)],
        )
        stats = make_runner(hdfs).run_workflow([job1, job2])
        assert hdfs.read("out").records == [20]
        assert stats.cycles == 2
        assert stats.map_only_cycles == 1
        assert stats.full_cycles == 1
        assert stats.total_cost > 0
        assert "TOTAL" in stats.describe()

    def test_counters_accumulate(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b"])
        stats = make_runner(hdfs).run_workflow([wordcount_job()])
        assert stats.counters["mr_cycles"] == 1
        assert stats.counters["map_input_records"] == 2


# -- the collector's scope -------------------------------------------------------
#
# ``run_workflow`` sets the heap it did not allocate aside (``gc.freeze``)
# for as long as it runs and puts it back (``gc.unfreeze``) however it
# ends; the collector itself is never switched off.


def probe_job(seen, name="probe", inputs=("in",), output="out"):
    """A map-only job whose mapper notes the collector's state."""

    def mapper(record):
        seen.append((gc.get_freeze_count(), gc.isenabled()))
        return [record]

    return MapReduceJob(name=name, inputs=inputs, output=output, mapper=mapper)


def probed_hdfs():
    hdfs = HDFS()
    hdfs.write("in", ["a", "b", "a"])
    return hdfs


def jobs_observed(monkeypatch):
    """Note the collector's state at the start of every executed job."""
    seen = []
    execute = MapReduceRunner._execute_job

    def observed(self, job, counters, span):
        seen.append((gc.get_freeze_count(), gc.isenabled()))
        return execute(self, job, counters, span)

    monkeypatch.setattr(MapReduceRunner, "_execute_job", observed)
    return seen


@pytest.fixture
def thawed():
    """The suite runs on a thawed heap and leaves it thawed."""
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    yield
    assert gc.get_freeze_count() == 0 and gc.isenabled()


class TestCollectorScope:
    def test_a_mapper_sees_the_older_heap_frozen_and_the_collector_on(self, thawed):
        seen = []
        make_runner(probed_hdfs()).run_workflow([probe_job(seen)])
        assert len(seen) == 3
        assert all(frozen > 0 and enabled for frozen, enabled in seen)

    def test_a_job_run_on_its_own_is_not_scoped(self, thawed):
        """The scope belongs to the workflow loop, its one call site."""
        seen = []
        make_runner(probed_hdfs()).run_job(probe_job(seen))
        assert seen and all(frozen == 0 and enabled for frozen, enabled in seen)

    def test_thawed_after_a_task_failure(self, thawed):
        plan = FaultPlan(seed=11, task_failure_rate=0.97, max_attempts=1)
        seen = []
        with pytest.raises(TaskFailedError):
            make_runner(probed_hdfs(), fault_plan=plan).run_workflow([probe_job(seen)])
        assert seen and all(frozen > 0 for frozen, _ in seen)

    def test_thawed_after_the_recovery_budget_is_exhausted(self, thawed):
        plan = FaultPlan(seed=1, task_failure_rate=0.97, max_attempts=1)
        seen = []
        runner = make_runner(
            probed_hdfs(), fault_plan=plan, recovery=RecoveryPolicy(max_resubmissions=1)
        )
        with pytest.raises(WorkflowAbortedError):
            runner.run_workflow([probe_job(seen)])
        # Both submissions ran inside the one scope.
        assert len(seen) == 6 and all(frozen > 0 for frozen, _ in seen)

    def test_a_nested_workflow_does_not_thaw_the_outer_one(self, thawed):
        hdfs = probed_hdfs()
        runner = make_runner(hdfs)
        seen = []

        def submit(jobs, stats):
            runner.run_workflow([probe_job(seen, "inner", output="mid")])
            seen.append("inner returned")
            runner._submit(jobs, stats)

        runner.run_workflow([probe_job(seen, "outer", ("mid",))], submit=submit)
        after_inner = seen[seen.index("inner returned") + 1 :]
        assert len(after_inner) == 3
        assert all(frozen > 0 and enabled for frozen, enabled in after_inner)

    def test_an_embedders_own_freeze_is_neither_added_to_nor_released(self):
        assert gc.get_freeze_count() == 0
        gc.collect()
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            # Allocated after the embedder's freeze: a freeze by the
            # workflow would move these into the permanent generation.
            ballast = [[] for _ in range(20_000)]
            seen = []
            make_runner(probed_hdfs()).run_workflow([probe_job(seen)])
            after = gc.get_freeze_count()
            # Nothing but ``gc.freeze`` adds to the count; frozen objects
            # that die in between leave it.
            assert seen and all(0 < frozen <= before for frozen, _ in seen)
            assert before - 1_000 < after <= before
            del ballast
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize(
        "engine, knobs",
        [
            ("rapid-analytics", {}),
            ("rapid-analytics", {"shards": 2}),
            ("hive-naive", {}),
            ("hive-mqo", {}),
        ],
        ids=["ntga", "sharded", "hive-naive", "hive-mqo"],
    )
    def test_every_engines_jobs_run_inside_the_scope(
        self, engine, knobs, bsbm_small, monkeypatch, thawed
    ):
        from repro.bench.catalog import get_query
        from repro.core.engines import run_query
        from repro.core.results import EngineConfig

        seen = jobs_observed(monkeypatch)
        report = run_query(
            get_query("MG1").sparql, bsbm_small, engine=engine, config=EngineConfig(**knobs)
        )
        assert len(seen) >= report.cycles > 0
        assert all(frozen > 0 and enabled for frozen, enabled in seen)

    def test_served_jobs_run_inside_the_scope(self, chem_tiny, monkeypatch, thawed):
        from repro.bench.harness import chem_config
        from repro.serve.service import OK, QueryService, ServiceConfig
        from repro.serve.workload import WorkloadSpec, workload_requests

        seen = jobs_observed(monkeypatch)
        requests = workload_requests(
            WorkloadSpec(seeds=1, clients=2, mix="chem-overlap", requests=6), seed=7
        )
        service = QueryService(chem_tiny, ServiceConfig(engine_config=chem_config()))
        assert all(response.status == OK for response in service.serve(requests))
        assert seen and all(frozen > 0 and enabled for frozen, enabled in seen)

    def test_a_cli_command_leaves_the_heap_thawed(self, capsys, thawed):
        from repro.cli import main

        assert main(["run", "MG1", "--dataset", "bsbm", "--preset", "tiny"]) == 0
        capsys.readouterr()


# -- property tests ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(st.tuples(st.sampled_from("abcdef"), st.integers(-100, 100)), max_size=80),
    block_size=st.integers(16, 4096),
    use_fold=st.booleans(),
)
def test_mapreduce_groupby_equals_in_memory(records, block_size, use_fold):
    """map+shuffle+reduce ≡ in-memory groupby-sum, folded or not."""
    hdfs = HDFS()
    hdfs.write("in", records)
    job = MapReduceJob(
        name="sum",
        inputs=("in",),
        output="out",
        mapper=lambda pair: [pair],
        reducer=lambda key, values: [(key, _sum(values))],
        fold=SUM_FOLD if use_fold else None,
    )
    make_runner(hdfs, block_size=block_size).run_job(job)
    expected = defaultdict(int)
    for key, value in records:
        expected[key] += value
    assert dict(hdfs.read("out").records) == dict(expected)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(st.integers(-50, 50), max_size=60), block_size=st.integers(8, 512))
def test_map_only_preserves_multiset(records, block_size):
    hdfs = HDFS()
    hdfs.write("in", records)
    job = MapReduceJob(name="id", inputs=("in",), output="out", mapper=lambda r: [r])
    make_runner(hdfs, block_size=block_size).run_job(job)
    assert Counter(hdfs.read("out").records) == Counter(records)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=60))
def test_stats_invariants(records):
    hdfs = HDFS()
    hdfs.write("in", records)
    stats = make_runner(hdfs, block_size=32).run_job(wordcount_job(fold=True))
    assert stats.map_tasks >= 1
    assert stats.reduce_tasks >= 1
    assert stats.cost_seconds > 0
    assert stats.input_records == len(records)
    assert stats.output_records == len(set(records))


@pytest.mark.parametrize("faults", [None, "7,0.2,0.2,0.2"], ids=["fault-free", "faulted"])
def test_a_job_is_priced_exactly_once(faults, bsbm_small, monkeypatch):
    """Traced and metered at once, an executed job still evaluates the
    cost model's job formula one time: the tracer's phase spans, the
    registry's histograms and the job's own cost all read that list."""
    from repro import obs
    from repro.bench.catalog import get_query
    from repro.core.engines import run_query
    from repro.core.results import EngineConfig
    from repro.mapreduce.cost import CostModel
    from repro.mapreduce.faults import FaultPlan
    from repro.obs import metrics

    calls = []
    priced = CostModel.job_cost_phases

    def counting(self, cluster, **volumes):
        phases = priced(self, cluster, **volumes)
        calls.append(phases)
        return phases

    monkeypatch.setattr(CostModel, "job_cost_phases", counting)
    plan = FaultPlan.from_spec(faults) if faults else None
    with obs.tracing() as tracer, metrics.collecting() as registry:
        report = run_query(
            get_query("MG1").sparql, bsbm_small, engine="rapid-analytics",
            config=EngineConfig(fault_plan=plan),
        )
    assert len(calls) == report.cycles > 0
    phase_spans = [s for s in tracer.spans if s.kind == "phase" and s.name != "recovery"]
    assert [(s.name, s.sim_dur) for s in phase_spans] == [
        (name, pytest.approx(seconds)) for phases in calls for name, seconds in phases
    ]
    families = {family.name: family for family in registry.families()}
    assert "mr_phase_sim_seconds" in families and "mr_job_cost_sim_seconds" in families
