"""Unit and property tests for checkpointed workflow recovery."""

from collections import Counter as PyCounter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.catalog import get_query
from repro.core.engines import run_query
from repro.core.results import EngineConfig
from repro.errors import CheckpointError, TaskFailedError, WorkflowAbortedError
from repro.mapreduce.checkpoint import (
    RECOVERY_COUNTERS,
    CommitLedger,
    LedgerEntry,
    RecoveryPolicy,
    RecoveryStats,
    fingerprint_inputs,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.cost import ClusterConfig
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runner import MapReduceRunner


def wordcount_job(name="wc", inputs=("in",), output="out"):
    return MapReduceJob(
        name=name,
        inputs=inputs,
        output=output,
        mapper=lambda record: [(record, 1)],
        reducer=lambda key, values: [(key, sum(values))],
    )


def passthrough_job(name, inputs, output):
    return MapReduceJob(
        name=name,
        inputs=inputs,
        output=output,
        mapper=lambda record: [(record, 1)],
        reducer=lambda key, values: [(key, sum(values))],
    )


def two_stage_workflow():
    """wc over 'in' -> 'mid', then re-count 'mid' pairs -> 'out'."""
    first = wordcount_job("stage1", ("in",), "mid")
    second = MapReduceJob(
        name="stage2",
        inputs=("mid",),
        output="out",
        mapper=lambda pair: [(pair[0], pair[1])],
        reducer=lambda key, values: [(key, sum(values))],
    )
    return [first, second]


#: Engine-level drivers that re-drive a failed submission through
#: ``run_workflow``'s loop: name -> (engine, EngineConfig knobs).
ENGINE_DRIVERS = {
    "rapid-analytics": ("rapid-analytics", {}),
    "shards=1": ("rapid-analytics", {"shards": 1, "partitioner": "hash"}),
    "shards=4": ("rapid-analytics", {"shards": 4}),
    "hive-naive": ("hive-naive", {}),
}


def make_runner(hdfs, fault_plan=None, recovery=None):
    return MapReduceRunner(
        hdfs, ClusterConfig(), fault_plan=fault_plan, recovery=recovery
    )


class TestRecoveryPolicy:
    def test_defaults(self):
        assert RecoveryPolicy().max_resubmissions == 8

    @pytest.mark.parametrize("budget", [0, -1, -8])
    def test_rejects_non_positive_budget(self, budget):
        with pytest.raises(CheckpointError):
            RecoveryPolicy(max_resubmissions=budget)


class TestFingerprint:
    def test_stable_for_unchanged_inputs(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b"])
        job = wordcount_job()
        assert fingerprint_inputs(hdfs, job) == fingerprint_inputs(hdfs, job)

    def test_changes_when_input_changes(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b"])
        job = wordcount_job()
        before = fingerprint_inputs(hdfs, job)
        hdfs.delete("in")
        hdfs.write("in", ["a", "b", "c"])
        assert fingerprint_inputs(hdfs, job) != before

    def test_absent_input_fingerprints_distinctly(self):
        hdfs = HDFS()
        job = wordcount_job()
        absent = fingerprint_inputs(hdfs, job)
        hdfs.write("in", [])
        assert fingerprint_inputs(hdfs, job) != absent

    def test_covers_side_inputs(self):
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        hdfs.write("side", ["x"])
        plain = wordcount_job()
        with_side = MapReduceJob(
            name="wc",
            inputs=("in",),
            output="out",
            mapper_factory=lambda side: (lambda r: [(r, 1)]),
            reducer=lambda k, v: [(k, sum(v))],
            side_inputs=("side",),
        )
        assert fingerprint_inputs(hdfs, plain) != fingerprint_inputs(hdfs, with_side)


class TestCommitLedger:
    def entry(self, fingerprint="fp", name="j1", output="out"):
        return LedgerEntry(
            job_name=name,
            output=output,
            fingerprint=fingerprint,
            output_bytes=100,
            output_records=10,
            cost_seconds=5.0,
            stats=None,
            counters={"map_tasks": 1},
        )

    def test_commit_and_lookup(self):
        ledger = CommitLedger()
        ledger.commit(self.entry())
        assert ledger.lookup("j1", "out", "fp") is not None
        assert ledger.committed_jobs() == ("j1",)
        assert ledger.total_bytes == 100
        assert len(ledger) == 1

    def test_lookup_mismatched_fingerprint_invalidates(self):
        ledger = CommitLedger()
        ledger.commit(self.entry(fingerprint="old"))
        assert ledger.lookup("j1", "out", "new") is None
        # The stale entry is gone: the old fingerprint no longer hits.
        assert ledger.lookup("j1", "out", "old") is None
        assert len(ledger) == 0


class TestCheckpointSkip:
    def test_second_run_skips_committed_job(self):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b", "a"])
        runner = make_runner(hdfs, recovery=RecoveryPolicy())
        first = runner.run_job(wordcount_job())
        assert len(hdfs.ledger) == 1
        counters = Counters()
        second = runner.run_job(wordcount_job(), counters)
        assert runner.recovery_stats.jobs_skipped == 1
        assert runner.recovery_stats.salvaged_bytes == first.output_bytes
        # The skip replays the committed stats and counters verbatim.
        assert second.cost_seconds == first.cost_seconds
        assert second.output_records == first.output_records
        assert counters.as_dict().get("map_tasks", 0) > 0
        assert dict(hdfs.read("out").records) == {"a": 2, "b": 1}

    def test_changed_input_invalidates_checkpoint(self):
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        runner = make_runner(hdfs, recovery=RecoveryPolicy())
        runner.run_job(wordcount_job())
        hdfs.delete("in")
        hdfs.write("in", ["a", "b"])
        hdfs.delete("out")
        runner.run_job(wordcount_job())
        assert runner.recovery_stats.jobs_skipped == 0
        assert dict(hdfs.read("out").records) == {"a": 1, "b": 1}

    def test_missing_output_is_a_checkpoint_error(self):
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        runner = make_runner(hdfs, recovery=RecoveryPolicy())
        runner.run_job(wordcount_job())
        hdfs.delete("out")
        with pytest.raises(CheckpointError):
            runner.run_job(wordcount_job())

    def test_no_recovery_means_no_ledger_writes(self):
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        make_runner(hdfs).run_job(wordcount_job())
        assert len(hdfs.ledger) == 0


def run_recovered(seed, rate, budget=64, attempts=1, records=("a", "b", "a")):
    hdfs = HDFS()
    hdfs.write("in", list(records))
    plan = FaultPlan(seed=seed, task_failure_rate=rate, max_attempts=attempts)
    runner = make_runner(
        hdfs, fault_plan=plan, recovery=RecoveryPolicy(max_resubmissions=budget)
    )
    stats = runner.run_workflow(two_stage_workflow())
    runner.finalize(stats)
    return hdfs, stats


class TestWorkflowResume:
    def test_resumed_workflow_matches_fault_free(self):
        clean_hdfs = HDFS()
        clean_hdfs.write("in", ["a", "b", "a"])
        clean_runner = make_runner(clean_hdfs)
        clean = clean_runner.run_workflow(two_stage_workflow())
        # Seed 5 at 50%/attempts=1 aborts deterministically at least once.
        hdfs, stats = run_recovered(seed=5, rate=0.5)
        assert dict(hdfs.read("out").records) == dict(clean_hdfs.read("out").records)
        assert stats.recovery is not None
        assert stats.recovery.resubmissions > 0
        assert stats.recovery.wasted_seconds > 0
        assert stats.total_cost > clean.total_cost
        counters = stats.counters.as_dict()
        assert counters["workflow_resubmissions"] == stats.recovery.resubmissions
        assert set(counters) & RECOVERY_COUNTERS  # finalize surfaced them

    def test_recovery_counters_surface_in_workflow_counters(self):
        _, stats = run_recovered(seed=5, rate=0.5)
        counters = stats.counters.as_dict()
        assert counters["workflow_resubmissions"] == stats.recovery.resubmissions

    @pytest.mark.parametrize("driver", ["runner", *ENGINE_DRIVERS])
    def test_budget_exhaustion_raises_typed_abort(self, driver, bsbm_small):
        """One resubmission loop serves the bare runner, the plain and
        sharded NTGA drivers and Hive's re-drive, so each gives up the
        same typed way when every submission keeps failing."""
        # Pinned empirically: under this plan every driver exhausts the
        # budget, three of them (runner, shards=4, hive-naive) with a
        # non-empty ledger.
        plan = FaultPlan(seed=2, task_failure_rate=0.6, max_attempts=1)
        policy = RecoveryPolicy(max_resubmissions=2)
        with obs.tracing() as recorder, pytest.raises(WorkflowAbortedError) as exc_info:
            if driver == "runner":
                hdfs = HDFS()
                hdfs.write("in", ["a", "b", "a"])
                runner = make_runner(hdfs, fault_plan=plan, recovery=policy)
                runner.run_workflow(two_stage_workflow())
            else:
                engine, knobs = ENGINE_DRIVERS[driver]
                run_query(
                    get_query("MG1").sparql,
                    bsbm_small,
                    engine=engine,
                    config=EngineConfig(fault_plan=plan, recovery=policy, **knobs),
                )
        error = exc_info.value
        assert error.resubmissions == 2
        assert isinstance(error.cause, TaskFailedError)
        assert error.failed_job == error.cause.job_name
        assert error.partial_stats is not None
        assert "still failing after 2 resubmission" in str(error)
        # committed_jobs is the ledger at abort time: the jobs that
        # checkpoint-committed across all three submissions.
        events = recorder.events
        commits = [e.attrs["job"] for e in events if e.name == "checkpoint-commit"]
        assert list(error.committed_jobs) == list(dict.fromkeys(commits))
        assert sum(e.name == "workflow-resume" for e in events) == 2
        (abort,) = [e for e in events if e.name == "workflow-abort"]
        assert abort.attrs["committed_jobs"] == len(error.committed_jobs)

    def test_task_failed_error_carries_partial_stats_without_recovery(self):
        """Satellite: an unrecovered workflow abort keeps its accounting."""
        hdfs = HDFS()
        hdfs.write("in", ["a", "b", "a"])
        plan = FaultPlan(seed=11, task_failure_rate=0.97, max_attempts=1)
        runner = make_runner(hdfs, fault_plan=plan)
        with pytest.raises(TaskFailedError) as exc_info:
            runner.run_workflow(two_stage_workflow())
        error = exc_info.value
        assert error.partial_stats is not None
        assert error.wasted_seconds > 0
        assert error.wasted_bytes >= 0
        assert error.job_counters is not None

    def test_events_emitted(self):
        with obs.tracing() as recorder:
            run_recovered(seed=5, rate=0.5)
        names = PyCounter(event.name for event in recorder.events)
        assert names["checkpoint-commit"] > 0
        assert names["workflow-resume"] > 0

    def test_abort_event_emitted(self):
        hdfs = HDFS()
        hdfs.write("in", ["a"])
        plan = FaultPlan(seed=1, task_failure_rate=0.97, max_attempts=1)
        runner = make_runner(
            hdfs, fault_plan=plan, recovery=RecoveryPolicy(max_resubmissions=1)
        )
        with obs.tracing() as recorder:
            with pytest.raises(WorkflowAbortedError):
                runner.run_workflow([wordcount_job()])
        assert any(event.name == "workflow-abort" for event in recorder.events)


class TestRecoveryCostProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_zero_rate_means_zero_recovery_cost(self, seed):
        """Resume cost is identically zero without faults: recovery adds
        nothing to a clean run (cost stays bit-identical)."""
        clean_hdfs = HDFS()
        clean_hdfs.write("in", ["a", "b", "a"])
        clean = make_runner(clean_hdfs).run_workflow(two_stage_workflow())
        hdfs, stats = run_recovered(seed=seed, rate=0.0)
        assert stats.recovery.resubmissions == 0
        assert stats.recovery.extra_seconds == 0.0
        assert stats.total_cost == clean.total_cost

    @staticmethod
    def _single_job_recovery(seed, rate):
        hdfs = HDFS()
        hdfs.write("in", ["a", "b", "a"])
        plan = FaultPlan(seed=seed, task_failure_rate=rate, max_attempts=1)
        runner = make_runner(
            hdfs, fault_plan=plan, recovery=RecoveryPolicy(max_resubmissions=64)
        )
        stats = runner.run_workflow([wordcount_job()])
        return runner.finalize(stats).recovery

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        low=st.floats(min_value=0.0, max_value=0.5),
        high=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_resume_cost_monotone_in_rate(self, seed, low, high):
        """For a single-job workflow with one seed, the fault sets are
        monotone in rate, so every submission that fails at the low rate
        also fails at the high rate: the resubmission count and hence
        the resume surcharge can only grow.  (Multi-job workflows are
        deliberately out of scope: *which* job aborts changes the
        ledger size at resubmission time, so the per-failure overhead
        is not comparable across rates.)"""
        if low > high:
            low, high = high, low
        cheap = self._single_job_recovery(seed, low)
        costly = self._single_job_recovery(seed, high)
        assert cheap.resubmissions <= costly.resubmissions
        assert cheap.extra_seconds <= costly.extra_seconds
        assert costly.extra_seconds >= 0.0


class TestRecoveryStats:
    def test_as_dict_roundtrip_keys(self):
        stats = RecoveryStats(resubmissions=2, jobs_skipped=3, salvaged_bytes=10)
        data = stats.as_dict()
        assert data["resubmissions"] == 2
        assert data["jobs_skipped"] == 3
        assert data["salvaged_bytes"] == 10
        assert set(data) >= {
            "salvaged_seconds", "wasted_seconds", "overhead_seconds",
        }
