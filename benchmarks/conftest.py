"""The one paper harness the benchmarks share.

Every row of ``repro.bench.harness.EXPERIMENTS`` runs once per session,
through ``run_paper_experiment`` with its answers checked against the
reference evaluator (``render_experiments.result``); each paper-table
file asserts its shape claims on that one result, and EXPERIMENTS.md is
rendered from the same results (``test_experiments_md.py``).
"""

import pytest

from benchmarks.render_experiments import result


@pytest.fixture
def paper(benchmark):
    """``paper(exp_id, ...)``: each named row's result (one id: the result
    itself).  The benchmark fixture times the lookup, so the first test
    that asks for a row carries that row's run; call it once per test,
    with every id the test reads."""

    def results(*exp_ids):
        found = benchmark.pedantic(lambda: tuple(map(result, exp_ids)), rounds=1, iterations=1)
        return found[0] if len(found) == 1 else found

    return results
