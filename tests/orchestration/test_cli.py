"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 4 and args.t == 1
        assert args.topology == "minimal"

    def test_adversary_with_argument(self):
        args = build_parser().parse_args(["run", "--adversary", "two_faced:x"])
        assert args.adversary == "two_faced:x"


class TestRunCommand:
    def test_basic_run(self, capsys):
        code = main(["run", "--n", "4", "--t", "1", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided      : True" in out
        assert "safety       : OK" in out

    def test_json_output(self, capsys):
        code = main(["run", "--json", "--seed", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_decided"] is True
        assert payload["invariants_ok"] is True
        assert set(payload["decisions"]) == {"1", "2", "3"} or set(
            payload["decisions"]
        ) == {1, 2, 3}

    def test_bot_variant(self, capsys):
        code = main(["run", "--variant", "bot", "--values", "x,y,z",
                     "--seed", "1"])
        assert code == 0

    def test_no_adversary(self, capsys):
        code = main(["run", "--adversary", "none", "--seed", "1"])
        assert code == 0

    def test_unknown_adversary_kind(self):
        with pytest.raises(SystemExit):
            main(["run", "--adversary", "wizardry"])

    def test_timely_topology(self, capsys):
        code = main(["run", "--topology", "timely", "--seed", "4"])
        assert code == 0

    def test_faults_below_t(self, capsys):
        # t = 2 budget but only one actual Byzantine process.
        code = main(["run", "--n", "7", "--t", "2", "--faults", "1",
                     "--seed", "1"])
        assert code == 0

    def test_k_option(self, capsys):
        code = main(["run", "--n", "7", "--t", "2", "--k", "1", "--seed", "1"])
        assert code == 0

    def test_nonzero_exit_on_budget_hit(self, capsys):
        code = main(["run", "--topology", "async", "--max-time", "5",
                     "--seed", "1"])
        assert code == 1


class TestSweepCommand:
    def test_aggregates(self, capsys):
        code = main(["sweep", "--n", "4", "--t", "1", "--seeds", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided      : 3/3 seeds" in out
        assert "rounds" in out


class TestBoundsCommand:
    def test_table(self, capsys):
        code = main(["bounds", "--n", "7", "--t", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "147" in out and "49" in out  # alpha*n and beta*n for k=1

    def test_rejects_bad_resilience(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--n", "6", "--t", "2"])


class TestFeasibilityCommand:
    def test_m_max(self, capsys):
        code = main(["feasibility", "--n", "10", "--t", "3"])
        assert code == 0
        assert "m_max=2" in capsys.readouterr().out

    def test_min_n(self, capsys):
        code = main(["feasibility", "--t", "2", "--m", "4"])
        assert code == 0
        assert "n >= 11" in capsys.readouterr().out

    def test_needs_n_or_m(self):
        with pytest.raises(SystemExit):
            main(["feasibility", "--t", "2"])


class TestConfigurationErrors:
    """A rejected configuration is one stderr line and exit code 2,
    whatever the command — never a traceback."""

    def test_run(self, capsys):
        code = main(["run", "--n", "4", "--t", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "repro: error: resilience bound requires n > 3t, got n=4, t=2\n"
        )

    def test_run_with_k_above_t(self, capsys):
        assert main(["run", "--n", "4", "--t", "1", "--k", "7"]) == 2
        assert capsys.readouterr().err == "repro: error: k must be in 0..t, got 7\n"

    def test_sweep(self, capsys, monkeypatch):
        # Sweeps record a scenario's configuration error on its outcome;
        # what is left is one raised while the sweep itself is set up.
        from repro.cli import sweep
        from repro.errors import ConfigurationError

        def refuse(args):
            raise ConfigurationError("need at least 2 processes, got 1")

        monkeypatch.setattr(sweep, "build_matrix", refuse)
        assert main(["sweep", "--grid", "1:0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: error: need at least 2 processes, got 1\n"

    def test_other_errors_still_propagate(self, monkeypatch):
        from repro.cli import sweep

        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweep, "build_matrix", crash)
        with pytest.raises(RuntimeError, match="boom"):
            main(["sweep"])
