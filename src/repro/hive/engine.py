"""Hive baseline engines (naive and MQO)."""

from __future__ import annotations

from repro import obs
from repro.core.query_model import AnalyticalQuery
from repro.core.results import EngineConfig, ExecutionReport, Row, check_supported
from repro.hive.executor import HiveExecutor
from repro.hive.tables import load_vertical_partitions
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runner import MapReduceRunner, WorkflowStats
from repro.rdf.graph import Graph


class HiveEngine:
    """Relational-style engine over VP tables on simulated MapReduce."""

    def __init__(self, mode: str):
        self.mode = mode
        self.name = f"hive-{mode}"

    def execute(
        self, query: AnalyticalQuery, graph: Graph, config: EngineConfig | None = None
    ) -> ExecutionReport:
        check_supported(self.name, config)
        config = config or EngineConfig()
        hdfs = HDFS(capacity=config.hdfs_capacity)
        with obs.span(self.name, "engine", {"engine": self.name}):
            with obs.span("load", "stage"):
                store = load_vertical_partitions(graph, hdfs)
            runner = MapReduceRunner(
                hdfs,
                config.cluster,
                config.cost_model,
                config.fault_plan,
                recovery=config.recovery,
            )
            executor: HiveExecutor
            rows: list[Row]

            def submit(_jobs: tuple[()], stats: WorkflowStats) -> None:
                # Hive's "planning" is interleaved with job submission
                # inside the executor, so one submission is a fresh
                # executor recompiling the query against the same HDFS.
                # Compilation is deterministic (counter-based job names,
                # size-driven map-join decisions over unchanged files),
                # so on a re-submission every ledger-committed job is
                # skipped and only the failed suffix recomputes — exactly
                # run_workflow's resubmission semantics.
                nonlocal executor, rows
                executor = HiveExecutor(hdfs, store, runner, config, self.mode)
                executor.stats = stats
                rows, _final = executor.execute(query)

            stats = runner.finalize(runner.run_workflow((), submit=submit))
        description = f"hive {self.mode} over {len(store.prop_paths)} VP tables"
        if executor.planner != "rule":
            description += f"; {executor.planner}-priced map-joins"
        return ExecutionReport(
            engine=self.name,
            rows=rows,
            stats=stats,
            plan=[job.name for job in stats.jobs],
            load_bytes=store.total_bytes,
            plan_description=description,
        )


def hive_naive_engine() -> HiveEngine:
    return HiveEngine("naive")


def hive_mqo_engine() -> HiveEngine:
    return HiveEngine("mqo")
