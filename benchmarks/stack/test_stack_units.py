"""Timing-free unit tests of the benchmark's own arithmetic.

Nothing here runs a workload or reads a clock: order statistics, span
self-time, the name charset, ``BENCHMARK.json`` <-> code agreement, the
``--compare`` verdicts and the argv rendering are all pure.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import e2e  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CATALOG = json.loads((workloads.REPO_ROOT / "BENCHMARK.json").read_text())
#: What the benchmark contract accepts as a name and as a unit.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- order statistics --------------------------------------------------------

def test_median_and_quartiles_match_the_drivers_definition():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0]
    q1, median, q3 = stats.quartiles(samples)
    assert (q1, median, q3) == (2.0, 4.0, 6.0)
    summary = stats.summarize(samples)
    assert summary["value"] == 4.0 and summary["n"] == 7
    assert (summary["min"], summary["max"]) == (1.0, 7.0)
    assert stats.spread(summary) == pytest.approx((6.0 - 2.0) / 4.0)
    assert stats.quartiles([3.5]) == (3.5, 3.5, 3.5)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(19))) is None
    # 20 samples: ten lie beyond the 10th smallest, which is the median.
    assert stats.tail_percentile(list(range(20))) == (50, 9)
    # 100 samples: p90 has exactly ten beyond it.
    assert stats.tail_percentile(list(range(100))) == (90, 89)
    percentile, value = stats.tail_percentile(list(range(1000, 0, -1)))
    assert percentile == 99 and value == 990
    assert "tail" not in stats.summarize([1.0, 2.0, 3.0])
    assert stats.summarize(list(range(40)))["tail"] == {
        "percentile": 75, "value": 29}


# -- spans -------------------------------------------------------------------

def test_covered_merges_overlapping_intervals():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.covered([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_span_minus_covered_child_time():
    spans = [
        tracing.Span(0, "root", "a", 0.0, 10.0),
        tracing.Span(1, "child", "b", 1.0, 4.0, parent=0),
        tracing.Span(2, "overlapping child", "b", 3.0, 6.0, parent=0),
        tracing.Span(3, "grandchild", "c", 1.5, 2.0, parent=1),
        tracing.Span(4, "child past the parent's end", "b", 9.0, 12.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)  # [1,6] and [9,10]
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_layer_table_ends_with_the_residual_and_adds_up():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 9.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))  # started at 0.0
    with tracer.span("outer", "core"):          # 1.0 .. 7.0
        with tracer.span("inner", "net"):       # 2.0 .. 3.0
            pass
    with tracer.span("later", "net"):           # 8.0 .. 9.0
        pass
    table = tracer.layer_table(wall=10.0)
    rows = {row["layer"]: row for row in table}
    assert table[-1]["layer"] == "residual"
    assert rows["core"]["self_s"] == pytest.approx(5.0)
    assert rows["net"]["self_s"] == pytest.approx(2.0)
    assert rows["net"]["spans"] == 2
    assert rows["residual"]["self_s"] == pytest.approx(3.0)
    assert sum(row["self_s"] for row in table) == pytest.approx(10.0)
    assert sum(row["share"] for row in table) == pytest.approx(1.0)


def test_chrome_trace_keeps_parent_and_repeat_ids():
    tracer = tracing.Tracer()
    tracer.repeat = "sweep_wide#ladder.0"
    with tracer.span("outer", "core"):
        with tracer.span("inner", "net"):
            pass
    tracer.count("net.msgs", 42)
    events = tracer.chrome()["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["args"]["parent"] for e in spans] == [None, 0]
    assert {e["args"]["repeat"] for e in spans} == {"sweep_wide#ladder.0"}
    assert [e["cat"] for e in spans] == ["core", "net"]
    assert events[-1] == {"name": "net.msgs", "ph": "C", "ts": events[-1]["ts"],
                          "pid": 1, "tid": 1, "args": {"value": 42}}


# -- BENCHMARK.json <-> code -------------------------------------------------

def test_every_name_and_unit_is_in_the_contracts_charset():
    metrics = CATALOG["end_to_end"] + CATALOG["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in CATALOG["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in metrics:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    assert not NAME_RE.match("bad name") and not NAME_RE.match("-x")


def test_catalog_meets_the_contracts_limits():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert CATALOG["paths"] == ["benchmarks/stack"]
    assert CATALOG["command"][1].startswith(CATALOG["paths"][0] + "/")
    assert 1 <= CATALOG["run_seconds"] <= 60
    assert 2 <= len(CATALOG["workloads"]) <= 8
    assert 1 <= len(CATALOG["end_to_end"]) <= 16
    assert 1 <= len(CATALOG["per_layer"]) <= 128
    for workload in CATALOG["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CATALOG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in CATALOG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])


def test_workloads_agree_with_the_catalog():
    assert [w["name"] for w in CATALOG["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_agree_with_the_catalog():
    measured = e2e.end_to_end_metrics(
        10, [1.0, 2.0], [1.0, 1.0], [30.0, 31.0], [0.5])
    assert list(measured) == [m["name"] for m in CATALOG["end_to_end"]]
    assert measured["units_per_s"]["value"] == pytest.approx(7.5)


# -- calibration -------------------------------------------------------------

def test_slowness_is_the_mean_burst_inside_the_intervals_over_the_reference():
    ref = calibrate.REFERENCE_BURST_S
    samples = [[0.5, 9 * ref], [1.0, ref], [2.0, 3 * ref], [3.5, 9 * ref],
               [5.0, 2 * ref]]
    assert calibrate.slowness(samples, [(1.0, 2.0)]) == pytest.approx(2.0)
    assert calibrate.slowness(samples, [(0.9, 1.1), (4.0, 6.0)]) == (
        pytest.approx(1.5))
    with pytest.raises(ValueError):
        calibrate.slowness(samples, [(2.1, 3.4)])


def test_throughput_is_per_second_of_the_reference_core():
    # The same 10 units took 1 s on a reference-speed core and 2 s on a
    # core that was twice as slow: one throughput.
    measured = e2e.end_to_end_metrics(
        10, [1.0, 2.0], [1.0, 2.0], [30.0, 30.0], [0.5])
    assert measured["units_per_s"]["samples"] == pytest.approx([10.0, 10.0])


def test_a_burst_is_fixed_work():
    def count() -> int:
        return calibrate.burst([calibrate._Node() for _ in range(16)])

    assert count() == count() > 0


def test_per_layer_names_agree_with_the_catalog():
    # layers.py records every metric under a literal name.
    source = (HERE / "layers.py").read_text(encoding="utf-8")
    recorded = set(re.findall(r'record\(\s*"([^"]+)"', source))
    assert recorded == {m["name"] for m in CATALOG["per_layer"]}
    assert run.EXACT_PER_LAYER <= recorded


# -- --compare ---------------------------------------------------------------

def run_of(*samples: float) -> dict:
    return stats.summarize(list(samples))


def test_verdict_same_better_worse_by_the_bound():
    base = run_of(100, 101, 99, 100, 100)
    assert stats.verdict(base, run_of(104, 105, 103, 104, 104), "higher", 0.10) == "same"
    assert stats.verdict(base, run_of(120, 121, 119, 120, 120), "higher", 0.10) == "better"
    assert stats.verdict(base, run_of(85, 86, 84, 85, 85), "higher", 0.10) == "worse"
    # The same numbers read the other way for a lower-is-better metric.
    assert stats.verdict(base, run_of(120, 121, 119, 120, 120), "lower", 0.10) == "worse"
    assert stats.verdict(base, run_of(85, 86, 84, 85, 85), "lower", 0.10) == "better"


def test_verdict_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    noisy = run_of(80, 100, 120, 90, 110)
    assert stats.spread(noisy) > 0.10
    assert stats.verdict(noisy, run_of(95, 105, 85, 115, 100), "higher", 0.10) == "unresolved"
    # ... even when the medians differ by more than the bound.
    assert stats.verdict(noisy, run_of(70, 85, 100, 75, 90), "higher", 0.10) == "unresolved"
    # Every run of one side beating every run of the other still decides.
    assert stats.verdict(noisy, run_of(130, 150, 170, 140, 160), "higher", 0.10) == "better"
    assert stats.verdict(noisy, run_of(30, 50, 70, 40, 60), "higher", 0.10) == "worse"
    assert stats.verdict(noisy, run_of(30, 50, 70, 40, 60), "lower", 0.10) == "better"


def test_exact_metrics_compare_by_equality():
    assert stats.exact_verdict(2317.9, 2317.9, "lower") == "same"
    assert stats.exact_verdict(2317.9, 2000.0, "lower") == "better"
    assert stats.exact_verdict(2317.9, 2318.0, "lower") == "worse"
    assert stats.exact_verdict("abc", "abc") == "same"
    assert stats.exact_verdict("abc", "abd") == "worse"
    assert stats.exact_verdict({"states": 133}, {"states": 134}) == "worse"


def test_compare_reports_and_exits_on_a_regression(tmp_path, capsys):
    def result(units, digest):
        return {
            "env": {"git_revision": "0" * 40}, "seed": 0,
            "workloads": {"sweep_wide": {
                "end_to_end": {
                    "units_per_s": run_of(*units),
                    "peak_rss_mb": run_of(47.0, 47.1, 47.0),
                    "setup_s": run_of(1.0, 1.1, 1.05),
                },
                "exact": {"failed_share": 0.0, "msgs_per_decision": 2317.9,
                          "digests": {"sweep": digest}, "checks": {}},
            }},
        }

    base, same, slow = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(result([60, 61, 59, 60, 60], "d1")))
    same.write_text(json.dumps(result([61, 62, 60, 61, 61], "d1")))
    # A third slower: beyond any bound the contract allows (25 %).
    slow.write_text(json.dumps(result([40, 41, 39, 40, 40], "d2")))
    assert run.compare(str(base), str(same), CATALOG) == 0
    assert "0 worse" in capsys.readouterr().out
    assert run.compare(str(base), str(slow), CATALOG) == 1
    out = capsys.readouterr().out
    assert "2 worse" in out  # units_per_s and the JSONL digest
    assert "0.667 of A" in out


# -- one definition, two renderings (the argv half) --------------------------

def test_sweep_flags_and_scenario_count():
    wide = workloads.WORKLOADS["sweep_wide"]
    flags = wide.sweep.flags(7)
    assert flags[flags.index("--grid") + 1] == "4:1,7:2"
    assert flags[flags.index("--seed") + 1] == "7"
    assert workloads.scenario_count(wide.sweep) == 2 * 2 * 4 * 2 * wide.sweep.seeds
    for workload in workloads.WORKLOADS.values():
        # The pooled backend runs inline below eight scenarios.
        assert workloads.scenario_count(workload.quick) >= 8


def test_store_cycle_plan_covers_every_store_path(tmp_path):
    store = workloads.WORKLOADS["store_cycle"]
    plan = store.plan(3, tmp_path)
    assert [c.label for c in plan] == [
        "cold", "warm", "shard1", "shard2", "shard3", "shard4",
        "merge_shards", "merge_cold", "plan", "claim", "collect"]
    by_label = {c.label: c for c in plan}
    total = workloads.scenario_count(store.sweep)
    assert sum(by_label[f"shard{i}"].records for i in (1, 2, 3, 4)) == total
    assert by_label["warm"].same_as == by_label["collect"].same_as == "cold"
    assert by_label["merge_cold"].same_as == "merge_shards"
    assert all("--workers" in c.argv for c in plan if c.argv[0] == "sweep")
    assert all(str(tmp_path) in " ".join(c.argv) for c in plan)


def test_check_commands_take_their_labels_from_the_seed():
    checks = {c.name: c for c in workloads.WORKLOADS["check_exhaust"].checks}
    assert checks["fifo_same"].argv(4) == [
        "check", "--n", "2", "--t", "0", "--values", "a4,a4", "--fifo", "--json"]
    assert "a4,b4" in checks["fifo_distinct"].argv(4)
    assert checks["unordered_budget"].argv(0)[-4:] == [
        "--budget", "300", "--no-minimize", "--json"]
    assert checks["mutant"].argv(9) == [
        "check", "--mutant", "decide-any-support", "--json"]
    assert checks["mutant"].exit_code == 1 and checks["fifo_same"].exit_code == 0


def test_check_oracle_flags_every_unexpected_output():
    check = workloads.WORKLOADS["check_exhaust"].checks[0]
    good = {"verdict": "ok", "exhausted": True, "states": 133, "minimized": False}
    assert e2e.check_problems(check, good) == []
    assert e2e.check_problems(check, {**good, "states": 134})
    assert e2e.check_problems(check, {**good, "exhausted": False})
    assert e2e.check_problems(check, {**good, "verdict": "violation"})
