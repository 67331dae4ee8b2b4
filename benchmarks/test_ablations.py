"""Ablation benchmarks for the design choices DESIGN.md calls out.

The figures EXPERIMENTS.md's "Ablations" section prints are asserted
here exactly, so the section cannot drift from what the code measures.
"""

import pytest

from repro.bench.ablations import (
    combiner_ablation,
    ec_pruning_ablation,
    mapjoin_threshold_sweep,
    parallel_aggregation_ablation,
    shared_scan_benefit,
)
from repro.bench.catalog import get_query
from repro.bench.harness import bsbm_config, chem_config


def test_ablation_agg_join_combiner(benchmark, bsbm_500k):
    """Mapper-side hash partial aggregation (Algorithm 3)."""
    result = benchmark.pedantic(
        lambda: combiner_ablation(bsbm_500k, get_query("MG1").sparql, bsbm_config()),
        rounds=1,
        iterations=1,
    )
    with_combiner, without_combiner = result
    # The workflow shuffle also contains the α-join cycle (untouched by
    # the combiner), so the end-to-end reduction is diluted relative to
    # the Agg-Join cycle's own saving.
    reduction = 1 - with_combiner.shuffle_bytes / without_combiner.shuffle_bytes
    benchmark.extra_info["shuffle_reduction_pct"] = round(reduction * 100)
    assert round(reduction * 100) == 28


def test_ablation_ec_pruning(benchmark, chem_paper):
    """Per-equivalence-class storage lets stars skip unrelated files."""
    result = benchmark.pedantic(
        lambda: ec_pruning_ablation(chem_paper, get_query("G9").sparql, chem_config()),
        rounds=1,
        iterations=1,
    )
    pruned, unpruned = result
    reduction = 1 - pruned.input_bytes / unpruned.input_bytes
    benchmark.extra_info["input_reduction_pct"] = round(reduction * 100)
    assert round(reduction * 100) == 12


def test_ablation_mapjoin_threshold(benchmark, chem_paper):
    """Hive's map-join threshold governs shuffle volume on G5."""
    result = benchmark.pedantic(
        lambda: mapjoin_threshold_sweep(
            chem_paper, get_query("G5").sparql, (0, 4096, 64 * 1024), chem_config()
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["sweep"] = {
        threshold: point.shuffle_bytes for threshold, point in result
    }
    shuffles = [point.shuffle_bytes for _, point in result]
    assert shuffles[0] >= shuffles[-1]


def test_ablation_parallel_aggregation(benchmark, bsbm_500k):
    """Figure 6(b) vs 6(a): the fused parallel Agg-Join's contribution."""
    result = benchmark.pedantic(
        lambda: parallel_aggregation_ablation(
            bsbm_500k, get_query("MG1").sparql, bsbm_config()
        ),
        rounds=1,
        iterations=1,
    )
    parallel, sequential = result
    benchmark.extra_info["parallel_cycles"] = parallel.cycles
    benchmark.extra_info["sequential_cycles"] = sequential.cycles
    saving = round((1 - parallel.cost_seconds / sequential.cost_seconds) * 100)
    benchmark.extra_info["cost_saving_pct"] = saving
    assert (parallel.cycles, sequential.cycles, saving) == (3, 4, 24)


def test_ablation_shared_scan(benchmark, bsbm_500k):
    """Composite evaluation scans each input once (vs twice for RAPID+)."""
    result = benchmark.pedantic(
        lambda: shared_scan_benefit(bsbm_500k, get_query("MG1").sparql, bsbm_config()),
        rounds=1,
        iterations=1,
    )
    analytics, plus = result["rapid-analytics"], result["rapid-plus"]
    benchmark.extra_info["input_bytes_ra"] = analytics.input_bytes
    benchmark.extra_info["input_bytes_rapid_plus"] = plus.input_bytes
    assert (analytics.input_bytes, plus.input_bytes) == (1_102_174, 2_121_048)
