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


def executions_line(out):
    """``(total, {status: count})`` of the report's ``executions`` line."""
    line = next(l for l in out.splitlines() if l.startswith("executions"))
    total, _, breakdown = line.split(":", 1)[1].strip().partition(" ")
    parts = {}
    for part in breakdown.strip("()").split(", "):
        count, status = part.split(" ")
        parts[status] = int(count)
    return int(total), parts


@pytest.mark.parametrize("flags, total, expected", [
    (["--fifo"], 90, {"complete": 4, "deduped": 67, "pruned": 19}),
    (["--budget", "300", "--no-minimize"], 300,
     {"complete": 178, "deduped": 122}),
    (["--fifo", "--max-steps", "5"], 1, {"steps": 1}),
])
def test_the_executions_line_adds_up(capsys, flags, total, expected):
    # It used to print `stats.pruned` — slept *branches* — among the
    # executions: 4 + 0 + 67 + 63 for 90.
    assert main(["check", "--n", "2", "--t", "0"] + flags) == 0
    printed, parts = executions_line(capsys.readouterr().out)
    assert printed == total == sum(parts.values())
    assert {status: n for status, n in parts.items() if n} == expected
    assert list(parts)[:4] == ["complete", "quiescent", "deduped", "pruned"]
    assert main(["check", "--n", "2", "--t", "0", "--json"] + flags) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["outcomes"].values()) == payload["stats"]["executions"]
    assert {s: n for s, n in payload["outcomes"].items() if n} == expected


def test_a_violation_is_one_of_the_executions(capsys):
    assert main(["check", "--mutant", "rb-echo-deliver"]) == 1
    printed, parts = executions_line(capsys.readouterr().out)
    assert printed == sum(parts.values()) and parts["violation"] == 1


@pytest.mark.parametrize("flag, name", [
    ("--budget", "max_executions"),
    ("--depth", "max_depth"),
    ("--states", "max_states"),
    ("--max-steps", "max_steps"),
])
def test_a_negative_budget_is_refused_not_a_silent_ok(capsys, flag, name):
    # Each of these explored nothing, printed "OK (budget hit before
    # exhaustion)" and exited 0.
    assert main(["check", "--n", "2", "--t", "0", flag, "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro: error: {name} must be >= 0, got -3\n"


def test_zero_budgets_keep_their_meaning(capsys):
    assert main(MODEL + ["--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict      : OK (budget hit before exhaustion)" in out
    assert executions_line(out)[0] == 0
    # `--max-steps 0` is "the default ceiling", as before.
    assert main(MODEL + ["--fifo", "--max-steps", "0"]) == 0
    assert "exhausted    : True" in capsys.readouterr().out


def test_the_verdict_carries_the_cache_and_fast_forward_counts(capsys):
    assert main(["check", "--n", "2", "--t", "0", "--fifo"]) == 0
    out = capsys.readouterr().out
    assert "sim steps    : 6616 (6096 retraced)" in out
    assert "fingerprints : 200 state walk(s), 292 process walk(s)" in out
    assert main(["check", "--n", "2", "--t", "0", "--fifo", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["retraced_steps"] == 6096 >= 0.9 * payload["stats"]["steps"]
    assert payload["process_walks"] == 292 < 0.8 * 2 * payload["fingerprints"]
    for name in ("retraced_steps", "process_walks", "outcomes"):
        assert name not in payload["stats"]
    assert main(["check", "--mutant", "decide-any-support", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["process_walks"] == 188 < payload["fingerprints"] == 217
    assert payload["retraced_steps"] == 0  # one execution: all new ground
