"""Planner A/B harness: rule vs cost over the MG slice, plus the
committed ``benchmarks/golden/planner-ab-mg.json`` regression.

The harness is the catalog-level acceptance check for the cost planner:
bit-identical answers (as multisets) and an actual run cost that never
exceeds the rule-based plan's, query by query.
"""

import json
from pathlib import Path

import pytest

from repro.bench.arms import DEFAULT_QUERIES
from repro.plan.ab import AB_SCHEMA, planner_ab_report, render_ab_report
from repro.rdf.terms import Literal, Variable
from repro.report import answers_digest

BENCH_GOLDEN = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "golden" / "planner-ab-mg.json"
)


@pytest.fixture(scope="module")
def report():
    return planner_ab_report(DEFAULT_QUERIES)


class TestRowsDigest:
    def rows(self):
        return [
            {Variable("a"): Literal.from_python(1), Variable("b"): Literal.from_python(2)},
            {Variable("a"): Literal.from_python(3), Variable("b"): Literal.from_python(4)},
        ]

    def test_order_insensitive(self):
        rows = self.rows()
        assert answers_digest(rows) == answers_digest(list(reversed(rows)))

    def test_value_sensitive(self):
        rows = self.rows()
        changed = rows[:1] + [{Variable("a"): Literal.from_python(99)}]
        assert answers_digest(rows) != answers_digest(changed)

    def test_multiset_not_set(self):
        rows = self.rows()
        assert answers_digest(rows) != answers_digest(rows + rows[:1])


class TestReport:
    def test_schema_and_coverage(self, report):
        assert report["schema"] == AB_SCHEMA
        assert report["queries"] == list(DEFAULT_QUERIES)
        assert [run["qid"] for run in report["runs"]] == list(DEFAULT_QUERIES)

    def test_catalog_verdicts(self, report):
        """The acceptance invariant: the cost planner never picks a plan
        whose actual run cost exceeds the rule-based plan's, and the
        answers are identical."""
        assert report["verdicts"] == {
            "answers_all_match": True,
            "cost_never_worse": True,
            "priced_cost_leq_rule": True,
        }
        for run in report["runs"]:
            assert run["answers_match"], run["qid"]
            assert run["cost_not_worse"], run["qid"]

    def test_composite_wins_everywhere_on_catalog(self, report):
        """On the paper's own workload the rewrite always wins — the
        cost planner's pick is ``composite``."""
        for run in report["runs"]:
            assert run["chosen"] == "composite", run["qid"]
            assert run["priced_cost"]["cost"] <= run["priced_cost"]["rule"]

    def test_render_is_one_line_per_query(self, report):
        text = render_ab_report(report)
        for qid in DEFAULT_QUERIES:
            assert qid in text
        assert "cost plan never worse: True" in text


class TestBenchCLI:
    def test_single_query_ab_with_output(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "ab.json"
        code = main(["bench", "MG1", "--planner-ab", "--output", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost plan never worse: True" in out
        written = json.loads(out_path.read_text())
        assert written["schema"] == AB_SCHEMA
        assert written["queries"] == ["MG1"]

    def test_unknown_query_exits_2(self, capsys):
        from repro.cli import main

        code = main(["bench", "MG99", "--planner-ab"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", ["--planner-ab", "--calibration", "--shards=2,hash"]
    )
    @pytest.mark.parametrize(
        "qids, fragment",
        [
            (",", "no catalog queries"),
            (" , ", "no catalog queries"),
            ("MG1,MG1", "listed more than once: ['MG1']"),
            ("MG2,MG1,MG2", "listed more than once: ['MG2']"),
        ],
    )
    def test_empty_or_repeated_query_list_exits_2(self, capsys, qids, fragment, mode):
        from repro.cli import main

        code = main(["bench", qids, mode])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert fragment in err

    @pytest.mark.parametrize(
        "alias, mode",
        [
            ("all", "--planner-ab"),
            ("planner-ab", "--planner-ab"),
            ("calibration", "--calibration"),
            ("shards", "--shards=2,hash"),
        ],
    )
    def test_only_mg_names_the_default_slice(self, capsys, alias, mode):
        from repro.cli import main

        assert main(["bench", alias, mode]) == 2
        assert f"unknown catalog queries ['{alias}']" in capsys.readouterr().err

    def test_golden_mismatch_exits_1(self, capsys, tmp_path):
        from repro.cli import main

        drifted_path = tmp_path / "drifted.json"
        code = main(["bench", "MG1", "--planner-ab", "--output", str(drifted_path)])
        assert code == 0
        capsys.readouterr()
        drifted = json.loads(drifted_path.read_text())
        drifted["runs"][0]["chosen"] = "sequential"
        drifted_path.write_text(json.dumps(drifted))
        code = main(["bench", "MG1", "--planner-ab", "--golden", str(drifted_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "chosen" in err


class TestGolden:
    def test_bench_golden_is_committed_and_current(self, report):
        """``planner-ab-mg.json`` is exactly what the harness produces today
        — any estimator drift must come with a golden refresh."""
        golden = json.loads(BENCH_GOLDEN.read_text())
        assert golden == report
