"""Deterministic MapReduce simulator: HDFS, jobs, runner, cost model,
seeded fault injection with Hadoop-style recovery, and workflow-level
checkpoint/resume via the HDFS commit ledger."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mapreduce.checkpoint": (
            "RECOVERY_COUNTERS",
            "CommitLedger",
            "LedgerEntry",
            "RecoveryPolicy",
            "RecoveryStats",
        ),
        "repro.mapreduce.cost": ("ClusterConfig", "CostModel", "estimate_size"),
        "repro.mapreduce.counters": ("Counters",),
        "repro.mapreduce.faults": ("FAULT_COUNTERS", "FaultPlan"),
        "repro.mapreduce.hdfs": ("HDFS", "HDFSFile"),
        "repro.mapreduce.job": ("JobStats", "MapReduceJob"),
        "repro.mapreduce.runner": ("MapReduceRunner", "WorkflowStats"),
    },
)
