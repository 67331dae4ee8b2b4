"""The --planner knob: validation, precedence, and CLI rejection."""

from types import SimpleNamespace

import pytest

from repro import ambient
from repro.ambient import PLANNER
from repro.cli import main
from repro.errors import ReproError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_accepts_every_mode(self):
        assert PLANNER.choices == ("rule", "cost", "auto")
        for mode in PLANNER.choices:
            assert PLANNER.validate(mode) == mode

    @pytest.mark.parametrize("bogus", ["", "Rule", "cheapest", "cost ", "none"])
    def test_rejects_everything_else(self, bogus):
        with pytest.raises(ReproError, match="invalid planner"):
            PLANNER.validate(bogus)

    def test_error_names_the_valid_modes(self):
        with pytest.raises(ReproError, match="rule/cost/auto"):
            PLANNER.validate("bogus")


class TestPrecedence:
    def test_default_is_rule(self):
        assert PLANNER.default == "rule"
        assert PLANNER.resolve() == "rule"
        assert PLANNER.resolve(None) == "rule"

    def test_ambient_beats_default(self):
        with ambient.installed(planner="cost"):
            assert PLANNER.resolve() == "cost"
        assert PLANNER.resolve() == "rule"

    def test_explicit_beats_ambient(self):
        with ambient.installed(planner="cost"):
            assert PLANNER.resolve("auto") == "auto"

    def test_ambient_nests_and_restores(self):
        with ambient.installed(planner="cost"):
            with ambient.installed(planner="auto"):
                assert PLANNER.resolve() == "auto"
            assert PLANNER.resolve() == "cost"

    def test_ambient_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with ambient.installed(planner="cost"):
                raise RuntimeError("boom")
        assert PLANNER.resolve() == "rule"

    def test_ambient_rejects_bogus_mode(self):
        args = SimpleNamespace(planner="cheapest")
        with pytest.raises(ReproError, match="invalid planner"):
            with ambient.installed(**ambient.knob_overrides(args)):
                pass  # pragma: no cover - never entered

    def test_explicit_rejects_bogus_mode(self):
        with pytest.raises(ReproError, match="invalid planner"):
            PLANNER.resolve("cheapest")


class TestCLI:
    def test_run_rejects_bogus_planner(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "MG1",
            "--dataset",
            "bsbm",
            "--preset",
            "tiny",
            "--planner",
            "bogus",
        )
        assert code == 2
        assert "invalid planner" in err

    def test_explain_rejects_bogus_planner(self, capsys):
        code, _, err = run_cli(capsys, "explain", "MG1", "--planner", "bogus")
        assert code == 2
        assert "invalid planner" in err

    def test_run_cost_reports_choice(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "MG1",
            "--dataset",
            "bsbm",
            "--preset",
            "tiny",
            "--planner",
            "cost",
        )
        assert code == 0
        assert "planner=cost chose" in out
        assert "priced" in out

    def test_run_rule_stays_quiet(self, capsys):
        """Rule mode is the pre-planner behavior: no planner chatter."""
        code, out, _ = run_cli(
            capsys, "run", "MG1", "--dataset", "bsbm", "--preset", "tiny"
        )
        assert code == 0
        assert "planner=" not in out
