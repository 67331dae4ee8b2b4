"""Ablation tests: each optimization measurably earns its keep."""

import pytest

from repro.bench.ablations import (
    combiner_ablation,
    ec_pruning_ablation,
    mapjoin_threshold_sweep,
    parallel_aggregation_ablation,
    shared_scan_benefit,
)
from repro.bench.harness import bsbm_config
from tests.conftest import MG1_STYLE_QUERY


def test_combiner_cuts_shuffle_volume(bsbm_small, mg1_style_query):
    from repro.bench.catalog import get_query

    with_combiner, without_combiner = combiner_ablation(
        bsbm_small, get_query("MG1").sparql, bsbm_config()
    )
    assert with_combiner.cycles == without_combiner.cycles
    assert with_combiner.shuffle_bytes < without_combiner.shuffle_bytes
    assert with_combiner.cost_seconds < without_combiner.cost_seconds


def test_combiner_ablation_bytes_and_cost_are_pinned():
    """MG1 on the BSBM tiny preset, with and without TG_AgJ's map-side
    aggregation: the values captured when the combine stage was still a
    combiner over per-solution accumulators.  The fold and a partial of
    one per emission must reproduce both to the byte.  (The costs were
    re-cut when a solution row stopped being sized by its variable
    names: the materialized answer shrank; the shuffle did not move.)"""
    from repro.bench.catalog import get_query
    from repro.datasets import bsbm

    graph = bsbm.generate(bsbm.preset("tiny"))
    with_fold, without_fold = combiner_ablation(graph, get_query("MG1").sparql)
    assert (with_fold.shuffle_bytes, with_fold.cost_seconds) == (32806, 27.96671346028646)
    assert (without_fold.shuffle_bytes, without_fold.cost_seconds) == (
        41495,
        28.07278035481771,
    )
    assert with_fold.cycles == without_fold.cycles == 3


def test_combiner_does_not_change_results(product_graph, mg1_style_query):
    # combiner_ablation runs the same plan twice; equality of aggregates is
    # covered by the runner property tests — here we just confirm both
    # variants execute end to end on a non-trivial graph.
    with_combiner, without_combiner = combiner_ablation(product_graph, mg1_style_query)
    assert with_combiner.cycles == without_combiner.cycles == 3


def test_ec_pruning_reduces_input(chem_tiny):
    """G9 touches only the publication/gene classes; pruning must skip
    the chemogenomics files entirely.  (Cost is not asserted: many small
    files also mean more mappers, a real Hadoop-era trade-off the paper
    acknowledges by grouping type triples into fewer files.)"""
    from repro.bench.catalog import get_query

    pruned, unpruned = ec_pruning_ablation(
        chem_tiny, get_query("G9").sparql, bsbm_config()
    )
    assert pruned.input_bytes < unpruned.input_bytes
    assert pruned.shuffle_bytes == unpruned.shuffle_bytes  # same answers flow


def test_mapjoin_sweep_monotone_map_only(chem_tiny):
    from repro.bench.catalog import get_query

    points = mapjoin_threshold_sweep(
        chem_tiny, get_query("G5").sparql, (0, 1024, 10**7)
    )
    assert len(points) == 3
    # All thresholds produce the same total cycle count; larger thresholds
    # turn more of them map-only, which shows up as less shuffle.
    cycles = {point.cycles for _, point in points}
    assert len(cycles) == 1
    assert points[0][1].shuffle_bytes > points[-1][1].shuffle_bytes
    # The grouping cycle still shuffles partial aggregates.
    assert points[-1][1].shuffle_bytes > 0



def test_parallel_aggregation_saves_a_cycle_and_a_scan(bsbm_small):
    """Figure 6(b) vs 6(a): fusing the two Agg-Joins drops one full MR
    cycle and one scan of the composite detail."""
    from repro.bench.catalog import get_query

    parallel, sequential = parallel_aggregation_ablation(
        bsbm_small, get_query("MG1").sparql, bsbm_config()
    )
    assert parallel.cycles == 3
    assert sequential.cycles == 4
    assert parallel.input_bytes < sequential.input_bytes
    assert parallel.cost_seconds < sequential.cost_seconds


def test_shared_scan_beats_sequential(bsbm_small):
    from repro.bench.catalog import get_query

    points = shared_scan_benefit(bsbm_small, get_query("MG1").sparql, bsbm_config())
    analytics, plus = points["rapid-analytics"], points["rapid-plus"]
    assert analytics.cycles < plus.cycles
    assert analytics.input_bytes < plus.input_bytes
    assert analytics.cost_seconds < plus.cost_seconds
