"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation turns one optimization off and must lose by it;
EXPERIMENTS.md's "Ablations" section prints the figures
(``render_experiments.py``, checked by ``test_experiments_md.py``).
"""

import pytest

from benchmarks import render_experiments


@pytest.fixture
def ablations(benchmark):
    return benchmark.pedantic(render_experiments.ablations, rounds=1, iterations=1)


def test_ablation_agg_join_combiner(ablations):
    """Mapper-side hash partial aggregation (Algorithm 3)."""
    with_combiner, without_combiner = ablations["combiner"]
    assert with_combiner.shuffle_bytes < without_combiner.shuffle_bytes


def test_ablation_ec_pruning(ablations):
    """Per-equivalence-class storage lets stars skip unrelated files."""
    pruned, unpruned = ablations["ec-pruning"]
    assert pruned.input_bytes < unpruned.input_bytes


def test_ablation_mapjoin_threshold(ablations):
    """Hive's map-join threshold governs shuffle volume on G5."""
    shuffles = [point.shuffle_bytes for _, point in ablations["mapjoin-sweep"]]
    assert shuffles == sorted(shuffles, reverse=True)


def test_ablation_parallel_aggregation(ablations):
    """Figure 6(b) vs 6(a): the fused parallel Agg-Join's contribution."""
    parallel, sequential = ablations["parallel"]
    assert parallel.cycles < sequential.cycles
    assert parallel.cost_seconds < sequential.cost_seconds


def test_ablation_shared_scan(ablations):
    """Composite evaluation scans each input once (vs twice for RAPID+)."""
    scans = ablations["shared-scan"]
    assert scans["rapid-analytics"].input_bytes < scans["rapid-plus"].input_bytes
