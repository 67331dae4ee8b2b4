"""Benchmark harness: workload catalog, experiment runners, reporting."""
