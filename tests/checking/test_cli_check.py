"""``repro check`` through its command-line surface: replay validation
and the work counts a check reports about itself."""

import json

import pytest

from repro.cli import main

MODEL = ["check", "--n", "2", "--t", "0", "--values", "a,b"]


def test_fifo_replay_of_a_non_head_index_fails_loudly(capsys):
    # 4 candidates at the first branching point, channel heads [0, 1]:
    # index 2 is in range, not enabled.
    with pytest.raises(SystemExit) as failure:
        main(MODEL + ["--fifo", "--replay", "2"])
    assert str(failure.value).startswith("replay failed: schedule index 2")
    assert "safety" not in capsys.readouterr().out


def test_fifo_replay_of_a_head_index_runs(capsys):
    assert main(MODEL + ["--fifo", "--replay", "1"]) == 0
    out = capsys.readouterr().out
    assert "schedule     : 1" in out and "safety       : OK" in out


def test_unordered_replay_takes_any_candidate(capsys):
    assert main(MODEL + ["--replay", "2"]) == 0
    assert "safety       : OK" in capsys.readouterr().out


def test_json_carries_the_work_counts_beside_the_pinned_stats(capsys):
    assert main(["check", "--mutant", "decide-any-support", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexample"] == []
    assert payload["stats"]["states"] == payload["fingerprints"] == 217
    assert 0 < payload["minimize_replays"] <= 16
    # `stats` is what the golden fixture and the benchmark oracle pin.
    assert "fingerprints" not in payload["stats"]
    assert "minimize_replays" not in payload["stats"]


def test_text_report_says_what_the_check_did(capsys):
    assert main(MODEL + ["--fifo"]) == 0
    out = capsys.readouterr().out
    assert "fingerprints : 180 state walk(s)" in out
    assert "minimizer" not in out       # nothing was minimized
    assert main(["check", "--mutant", "rb-echo-deliver"]) == 1
    out = capsys.readouterr().out
    assert "fingerprints : 2 state walk(s)" in out
    assert "minimizer    : 2 replay(s)" in out


def test_a_rejected_model_is_a_one_line_error_not_a_traceback(capsys):
    assert main(["check", "--n", "4", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "repro: error: resilience bound requires n > 3t, got n=4, t=2\n"
    )
    assert main(["check", "--n", "1"]) == 2
    assert capsys.readouterr().err == (
        "repro: error: need at least 2 processes, got 1\n"
    )
