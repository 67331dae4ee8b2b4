"""Deterministic MapReduce simulator: HDFS, jobs, runner, cost model,
seeded fault injection with Hadoop-style recovery, and workflow-level
checkpoint/resume via the HDFS commit ledger."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mapreduce.cost": ("ClusterConfig",),
        "repro.mapreduce.faults": ("FaultPlan",),
        "repro.mapreduce.hdfs": ("HDFS",),
        "repro.mapreduce.runner": ("MapReduceRunner",),
    },
)
