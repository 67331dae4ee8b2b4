"""EXPERIMENTS.md is the render of the code's measurements.

Every measured number in the document sits in a rendered passage;
``render_experiments.py`` rewrites them from the session's one run of
each paper experiment, and this check fails on any difference: a
changed cost constant, a planner change, or a hand edit.  The cycle
counts the paper states (the document's in-text table) are asserted
here against the same runs.
"""

import difflib

import pytest

from benchmarks.render_experiments import CYCLE_CLAIMS, DOCUMENT, measured_cycles, render


@pytest.mark.parametrize("claim", CYCLE_CLAIMS, ids=lambda claim: claim.label)
def test_paper_cycle_counts(paper, claim):
    paper(*claim.experiments)
    assert measured_cycles(claim) == claim.paper


def test_experiments_md_is_the_render(benchmark):
    committed = DOCUMENT.read_text(encoding="utf-8")
    rendered = benchmark.pedantic(render, (committed,), rounds=1, iterations=1)
    diff = "".join(difflib.unified_diff(
        committed.splitlines(keepends=True), rendered.splitlines(keepends=True),
        "EXPERIMENTS.md (committed)", "EXPERIMENTS.md (rendered)",
    ))
    assert not diff, (
        "EXPERIMENTS.md differs from the code; re-render with "
        "`PYTHONPATH=src python3 benchmarks/render_experiments.py`:\n" + diff
    )
