"""The observability CLI faces: events / top / trace, and their
dispatch hooks (claim --heartbeat, status --reclaim, sweep --events)."""

import json

import pytest

from repro.cli import main
from repro.obs.chrometrace import validate_trace
from repro.obs.events import read_events
from repro.orchestration.dispatch import DispatchPlan

ARGS = ["--grid", "4:1", "--seeds", "2", "--seed", "11"]


@pytest.fixture
def fleet(tmp_path, capsys):
    """A planned-and-fully-claimed dispatch directory with a ledger."""
    d = str(tmp_path / "d")
    assert main(["dispatch", "plan", "--dir", d, "--units", "2",
                 *ARGS]) == 0
    assert main(["dispatch", "claim", d, "--worker", "w1"]) == 0
    capsys.readouterr()
    return d


class TestSweepEvents:
    def test_sweep_appends_a_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "sweep-events.jsonl"
        assert main(["sweep", *ARGS, "--events", str(ledger)]) == 0
        assert "events       :" in capsys.readouterr().out
        types = [r["type"] for r in read_events(ledger)]
        assert types[0] == "sweep_started"
        assert types[-1] == "sweep_finished"
        assert types.count("cache_miss") == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_printed_count_is_the_ledger_line_count(
        self, tmp_path, capsys, workers
    ):
        # 12 scenarios: past INLINE_THRESHOLD, so two workers really
        # start a pool and its pool_started record is counted too.
        ledger = tmp_path / "events.jsonl"
        assert main(["sweep", "--grid", "4:1", "--seeds", "12",
                     "--workers", workers, "--events", str(ledger)]) == 0
        lines = len(ledger.read_text().splitlines())
        assert lines == 14 + (workers == "2")
        assert f"({lines} event(s) appended)" in capsys.readouterr().out


class TestClaimEvents:
    def test_claim_writes_unit_lifecycle_events(self, tmp_path, fleet):
        records = list(read_events(tmp_path / "d" / "events.jsonl"))
        types = [r["type"] for r in records]
        assert types.count("unit_claimed") == 2
        assert types.count("unit_completed") == 2
        run_ids = {r["run"] for r in records}
        assert run_ids == {DispatchPlan.load(fleet).run_id}
        assert {r["worker"] for r in records} == {"w1"}

    def test_no_events_opts_out(self, tmp_path, capsys):
        d = str(tmp_path / "d")
        assert main(["dispatch", "plan", "--dir", d, "--units", "1",
                     *ARGS]) == 0
        assert main(["dispatch", "claim", d, "--worker", "w1",
                     "--no-events"]) == 0
        assert not (tmp_path / "d" / "events.jsonl").exists()


class TestEventsCommand:
    def test_tail_prints_formatted_lines(self, fleet, capsys):
        assert main(["events", "tail", fleet, "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "unit_completed" in lines[-1]

    def test_query_with_type_filter_and_json(self, fleet, capsys):
        assert main(["events", "query", fleet,
                     "--type", "unit_claimed", "--json"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(records) == 2
        assert all(r["type"] == "unit_claimed" for r in records)

    def test_query_since_is_relative(self, fleet, capsys):
        assert main(["events", "query", fleet, "--since", "3600"]) == 0
        out = capsys.readouterr().out
        assert "unit_claimed" in out  # everything is recent
        assert main(["events", "query", fleet, "--since", "0"]) == 0
        assert "no matching events" in capsys.readouterr().out

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["events", "tail", str(tmp_path / "nope")])


class TestTopCommand:
    def test_once_on_a_finished_fleet(self, fleet, capsys):
        assert main(["top", fleet, "--once"]) == 0
        out = capsys.readouterr().out
        assert "run run-" in out
        assert "2/2 (100%)" in out

    def test_once_on_an_unfinished_fleet_exits_nonzero(
        self, tmp_path, capsys
    ):
        d = str(tmp_path / "d")
        assert main(["dispatch", "plan", "--dir", d, "--units", "2",
                     *ARGS]) == 0
        capsys.readouterr()
        assert main(["top", d, "--once"]) == 1
        assert "no active workers" in capsys.readouterr().out


class TestStatusReclaim:
    def test_reclaim_resets_stale_leases(self, tmp_path, capsys):
        d = tmp_path / "d"
        assert main(["dispatch", "plan", "--dir", str(d), "--units", "1",
                     *ARGS]) == 0
        plan = DispatchPlan.load(d)
        plan.claim("w1", now=1.0)  # lease long expired by wall-now
        capsys.readouterr()
        assert main(["dispatch", "status", str(d), "--reclaim"]) == 1
        out = capsys.readouterr().out
        assert "reclaimed" in out
        unit = DispatchPlan.load(d).units[0]
        assert unit.status == "pending" and unit.owner is None

    def test_status_shows_pulse_and_progress_columns(
        self, tmp_path, capsys
    ):
        d = tmp_path / "d"
        assert main(["dispatch", "plan", "--dir", str(d), "--units", "1",
                     *ARGS]) == 0
        plan = DispatchPlan.load(d)
        unit = plan.claim("w1")
        plan.heartbeat(unit.name, "w1", done=1, total=2)
        capsys.readouterr()
        assert main(["dispatch", "status", str(d)]) == 1
        out = capsys.readouterr().out
        assert "pulse" in out and "progress" in out
        assert "1/2" in out


class TestTraceCommand:
    def test_export_from_ledger(self, fleet, tmp_path, capsys):
        out_path = tmp_path / "fleet-trace.json"
        assert main(["trace", "--ledger", fleet,
                     "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert validate_trace(trace) > 0
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(name.startswith("unit-") for name in names)

    def test_export_from_profile(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        assert main(["profile", *ARGS, "--out", str(profile)]) == 0
        out_path = tmp_path / "t.json"
        assert main(["trace", "--from-profile", str(profile),
                     "--out", str(out_path)]) == 0
        assert validate_trace(json.loads(out_path.read_text())) > 0

    def test_export_from_a_fresh_run(self, tmp_path, capsys):
        out_path = tmp_path / "run-trace.json"
        assert main(["trace", "--n", "4", "--t", "1", "--seed", "3",
                     "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert validate_trace(trace) > 0
        assert "view at" in capsys.readouterr().out

    def test_ledger_and_profile_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--ledger", str(tmp_path),
                  "--from-profile", str(tmp_path / "p.json")])
