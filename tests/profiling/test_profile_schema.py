"""The profile JSON schema contract (``repro profile --out profile.json``).

``SweepProfiler.to_dict`` is consumed by two independent readers: the
``repro trace --from-profile`` exporter and the docs examples.  This
test pins the key sets so a schema drift breaks loudly here instead of
silently in a consumer.
"""

import json

from repro.obs.chrometrace import trace_from_profile, validate_trace
from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import sweep_serial
from repro.profiling import SweepProfiler


def small_profile():
    profiler = SweepProfiler()
    sweep_serial(
        ScenarioMatrix(sizes=[(4, 1)], seeds=range(2), base_seed=9),
        profiler=profiler,
    )
    return profiler.to_dict()


def assert_pinned_key_sets(profile):
    assert set(profile) == {
        "wall_seconds", "coverage", "phases", "sim"
    }
    assert set(profile["sim"]) == {
        "events", "runs", "labels", "labels_truncated"
    }
    for stat in profile["phases"].values():
        assert set(stat) == {"seconds", "calls"}
    for stat in profile["sim"]["labels"].values():
        assert set(stat) == {"seconds", "events"}


class TestSchema:
    def test_top_level_and_nested_key_sets(self):
        assert_pinned_key_sets(small_profile())

    def test_the_cli_writes_it_only_where_out_says(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        argv = ["profile", "--grid", "4:1", "--seeds", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "(measured wall)" in printed and "tag:RB_READY" in printed
        assert "profile json" not in printed
        assert list(tmp_path.iterdir()) == []
        assert main([*argv, "--out", "p.json"]) == 0
        assert "profile json : p.json" in capsys.readouterr().out
        assert_pinned_key_sets(json.loads((tmp_path / "p.json").read_text()))

    def test_json_round_trip_is_lossless(self):
        profile = small_profile()
        assert json.loads(json.dumps(profile, sort_keys=True)) == profile

    def test_values_are_sane(self):
        profile = small_profile()
        assert profile["wall_seconds"] >= 0
        assert 0.0 <= profile["coverage"] <= 1.0
        assert profile["sim"]["runs"] == 2
        assert profile["sim"]["labels_truncated"] >= 0
        assert "simulate" in profile["phases"]

    def test_trace_exporter_consumes_the_round_tripped_body(self):
        profile = json.loads(json.dumps(small_profile()))
        trace = trace_from_profile(profile)
        validate_trace(trace)
        slices = [
            e for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert {s["name"] for s in slices} >= set(profile["phases"])
