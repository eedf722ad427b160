"""The distributed work-queue dispatcher: manifests, leases, claims."""

import json
import threading

import pytest

from repro.orchestration.dispatch import (
    DispatchError,
    DispatchPlan,
    plan_dispatch,
    run_claims,
)
from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import sweep_serial
from repro.store import ResultCache, merge_shards
from repro.store.shards import matrix_order


@pytest.fixture
def matrix():
    return ScenarioMatrix(
        sizes=[(4, 1), (7, 2)],
        adversaries=["crash", "two_faced:evil"],
        seeds=range(2),
        base_seed=11,
    )


class TestPlan:
    def test_manifest_round_trips_the_matrix(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=4)
        loaded = DispatchPlan.load(tmp_path / "d")
        assert loaded.matrix.expand() == matrix.expand()
        assert [u.name for u in loaded.units] == [u.name for u in plan.units]
        assert loaded.total_scenarios == len(matrix.expand())

    def test_units_partition_the_matrix(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=3)
        specs = matrix.expand()
        slices = [plan.specs_for(unit) for unit in plan.units]
        assert sum(len(s) for s in slices) == len(specs)
        assert sorted(
            (spec.index for chunk in slices for spec in chunk)
        ) == [spec.index for spec in specs]
        assert all(
            unit.scenarios == len(chunk)
            for unit, chunk in zip(plan.units, slices)
        )

    def test_unit_count_clamped_to_matrix_size(self, tmp_path):
        small = ScenarioMatrix(seeds=range(2))
        plan = plan_dispatch(small, tmp_path / "d", units=10)
        assert len(plan.units) == 2
        assert all(unit.scenarios == 1 for unit in plan.units)

    def test_existing_manifest_refused(self, tmp_path, matrix):
        plan_dispatch(matrix, tmp_path / "d", units=2)
        with pytest.raises(DispatchError, match="immutable"):
            plan_dispatch(matrix, tmp_path / "d", units=2)

    def test_bad_parameters(self, tmp_path, matrix):
        with pytest.raises(ValueError):
            plan_dispatch(matrix, tmp_path / "a", units=0)
        with pytest.raises(ValueError):
            plan_dispatch(matrix, tmp_path / "b", units=2, max_attempts=0)
        with pytest.raises(ValueError):
            plan_dispatch(matrix, tmp_path / "c", units=2, lease_seconds=0)
        with pytest.raises(ValueError, match="empty"):
            plan_dispatch(
                ScenarioMatrix(seeds=()), tmp_path / "e", units=2
            )

    def test_newer_manifest_format_refused(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=2)
        data = json.loads(plan.manifest_path.read_text())
        data["format"] = 99
        plan.manifest_path.write_text(json.dumps(data))
        with pytest.raises(DispatchError, match="format 99"):
            DispatchPlan.load(tmp_path / "d")


class TestClaims:
    def test_claims_hand_out_distinct_units(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=3)
        names = {plan.claim("w1").name, plan.claim("w2").name,
                 plan.claim("w1").name}
        assert len(names) == 3
        assert plan.claim("w3") is None  # everything leased, nothing expired

    def test_lease_expiry_makes_unit_reclaimable(self, tmp_path, matrix):
        plan = plan_dispatch(
            matrix, tmp_path / "d", units=2, lease_seconds=50
        )
        t0 = 1000.0
        first = plan.claim("w1", now=t0)
        assert first.owner == "w1" and first.attempts == 1
        # Before expiry the other unit is preferred, then nothing.
        second = plan.claim("w2", now=t0 + 1)
        assert second.name != first.name
        assert plan.claim("w3", now=t0 + 49) is None
        # After expiry both come back, fresh-pending-first ordering moot.
        reclaimed = plan.claim("w3", now=t0 + 51)
        assert reclaimed.name in (first.name, second.name)
        assert reclaimed.owner == "w3"
        assert reclaimed.attempts == 2

    def test_pending_units_claimed_before_expired_leases(
        self, tmp_path, matrix
    ):
        plan = plan_dispatch(
            matrix, tmp_path / "d", units=3, lease_seconds=10
        )
        t0 = 0.0
        leased = plan.claim("w1", now=t0)
        fresh = plan.claim("w2", now=t0 + 20)  # w1's lease has expired
        assert fresh.name != leased.name
        assert fresh.attempts == 1

    def test_max_attempts_exhausts_a_unit(self, tmp_path):
        small = ScenarioMatrix(seeds=range(1))
        plan = plan_dispatch(
            small, tmp_path / "d", units=1, lease_seconds=10,
            max_attempts=2,
        )
        assert plan.claim("w", now=0.0) is not None
        assert plan.claim("w", now=20.0) is not None
        assert plan.claim("w", now=40.0) is None
        assert plan.counts(now=40.0)["exhausted"] == 1

    def test_release_returns_the_lease(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=2)
        unit = plan.claim("w1")
        assert plan.release(unit.name, "w1") is True
        assert plan.release(unit.name, "w1") is False  # no longer leased
        again = plan.claim("w2")
        assert again.name == unit.name
        assert again.attempts == 2  # the failed attempt still counted

    def test_complete_is_idempotent(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=2)
        unit = plan.claim("w1")
        assert plan.complete(unit.name, "w1", records=4) is True
        assert plan.complete(unit.name, "w2", records=4) is False
        loaded = DispatchPlan.load(tmp_path / "d")
        assert loaded._unit(unit.name).owner == "w1"

    def test_racing_claimants_never_share_a_unit(self, tmp_path):
        plan_dispatch(
            ScenarioMatrix(seeds=range(8)), tmp_path / "d", units=8
        )
        got: dict[str, list[str]] = {"a": [], "b": []}

        def drain(worker: str) -> None:
            plan = DispatchPlan.load(tmp_path / "d")
            while True:
                unit = plan.claim(worker)
                if unit is None:
                    return
                got[worker].append(unit.name)

        threads = [
            threading.Thread(target=drain, args=(w,)) for w in got
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not set(got["a"]) & set(got["b"])
        assert len(got["a"]) + len(got["b"]) == 8


class TestRunClaims:
    def test_executes_and_marks_done(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=3)
        executed = run_claims(tmp_path / "d", worker="w1")
        assert [u.name for u in executed] == [u.name for u in plan.units]
        loaded = DispatchPlan.load(tmp_path / "d")
        assert loaded.finished
        assert all(u.records == u.scenarios for u in loaded.units)

    def test_shards_merge_back_to_the_unsharded_sweep(
        self, tmp_path, matrix
    ):
        plan = plan_dispatch(matrix, tmp_path / "d", units=3)
        run_claims(plan, worker="w1")
        merged = merge_shards(
            sorted(plan.shard_dir.glob("*.jsonl"))
        )
        ref = sweep_serial(matrix)
        assert sorted(merged.outcomes, key=matrix_order) == ref.outcomes

    def test_max_units_stops_early(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=3)
        assert len(run_claims(plan, worker="w1", max_units=1)) == 1
        assert not DispatchPlan.load(tmp_path / "d").finished

    def test_failed_unit_is_released(self, tmp_path, matrix, monkeypatch):
        plan = plan_dispatch(matrix, tmp_path / "d", units=2)

        def boom(*args, **kwargs):
            raise RuntimeError("worker died")

        import repro.orchestration.parallel as parallel

        monkeypatch.setattr(parallel, "sweep_parallel", boom)
        with pytest.raises(RuntimeError, match="worker died"):
            run_claims(tmp_path / "d", worker="w1")
        loaded = DispatchPlan.load(tmp_path / "d")
        unit = loaded.units[0]
        assert unit.status == "pending" and unit.attempts == 1

    def test_shared_cache_spares_re_execution(self, tmp_path, matrix):
        cache = ResultCache(tmp_path / "cache", salt="test")
        plan = plan_dispatch(matrix, tmp_path / "d1", units=2)
        run_claims(plan, worker="w1", cache=cache)
        executed_before = cache.stats.puts
        assert executed_before == plan.total_scenarios
        plan2 = plan_dispatch(matrix, tmp_path / "d2", units=4)
        run_claims(plan2, worker="w2", cache=cache)
        assert cache.stats.puts == executed_before  # all served from cache
        merged = merge_shards(sorted(plan2.shard_dir.glob("*.jsonl")))
        assert sorted(
            merged.outcomes, key=matrix_order
        ) == sweep_serial(matrix).outcomes

    def test_tiny_heartbeat_interval_renews_while_executing(
        self, tmp_path, matrix
    ):
        from repro.obs.events import EVENT_UNIT_RENEWED, EventLedger, read_events
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import SweepTelemetry

        plan = plan_dispatch(matrix, tmp_path / "d", units=2)
        telemetry = SweepTelemetry(
            ledger=EventLedger(tmp_path / "events.jsonl"),
            metrics=MetricsRegistry(),
        )
        run_claims(
            plan, worker="w1", heartbeat_interval=1e-9, telemetry=telemetry,
        )
        telemetry.ledger.close()
        renewals = list(
            read_events(tmp_path / "events.jsonl", types=[EVENT_UNIT_RENEWED])
        )
        # Every scenario's check found the interval due: one renewal per
        # scenario, each counted and each renewing the lease.
        assert len(renewals) == plan.total_scenarios
        assert telemetry.metrics.counter("dispatch.heartbeats").total() \
            == len(renewals)
        assert all(event["renewed"] for event in renewals)
        assert max(event["done"] for event in renewals) >= 1
        assert telemetry.scenarios == plan.total_scenarios
        assert DispatchPlan.load(tmp_path / "d").finished


T0 = 1000.0


class TestHeartbeats:
    @pytest.fixture
    def plan(self, tmp_path):
        small = ScenarioMatrix(seeds=range(2), base_seed=5)
        return plan_dispatch(
            small, tmp_path / "d", units=1, lease_seconds=50
        )

    def test_heartbeat_renews_the_lease(self, plan):
        unit = plan.claim("w1", now=T0)
        assert plan.heartbeat(unit.name, "w1", now=T0 + 40) is True
        # Without the renewal the lease would have expired at T0+50.
        assert plan.claim("w2", now=T0 + 60) is None
        loaded = DispatchPlan.load(plan.root)
        assert loaded._unit(unit.name).lease_expires == T0 + 40 + 50

    def test_heartbeat_records_progress(self, plan):
        unit = plan.claim("w1", now=T0)
        plan.heartbeat(unit.name, "w1", done=3, total=8, now=T0 + 10)
        loaded = DispatchPlan.load(plan.root)._unit(unit.name)
        assert (loaded.progress_done, loaded.progress_total) == (3, 8)
        assert loaded.heartbeat_at == T0 + 10
        assert loaded.heartbeat_age(T0 + 15) == 5.0

    def test_wrong_owner_heartbeat_changes_nothing(self, plan):
        unit = plan.claim("w1", now=T0)
        assert plan.heartbeat(unit.name, "w2", now=T0 + 1) is False
        loaded = DispatchPlan.load(plan.root)._unit(unit.name)
        assert loaded.heartbeat_at is None
        assert loaded.lease_expires == T0 + 50

    def test_unleased_unit_rejects_heartbeats(self, plan):
        unit = plan.claim("w1", now=T0)
        plan.complete(unit.name, "w1", records=2)
        assert plan.heartbeat(unit.name, "w1", now=T0 + 1) is False

    def test_expired_but_unreclaimed_lease_is_renewed(self, plan):
        # The worker just proved it is alive — exactly what renewal is
        # for.  Only an actual reclaim forfeits the lease.
        unit = plan.claim("w1", now=T0)
        assert plan.heartbeat(unit.name, "w1", now=T0 + 60) is True
        loaded = DispatchPlan.load(plan.root)._unit(unit.name)
        assert loaded.lease_expires == T0 + 60 + 50

    def test_late_heartbeat_cannot_steal_a_reclaimed_unit(self, plan):
        unit = plan.claim("w1", now=T0)
        stolen = plan.claim("w2", now=T0 + 60)  # w1's lease expired
        assert stolen.name == unit.name and stolen.owner == "w2"
        assert plan.heartbeat(unit.name, "w1", now=T0 + 61) is False
        loaded = DispatchPlan.load(plan.root)._unit(unit.name)
        assert loaded.owner == "w2"
        assert loaded.lease_expires == T0 + 60 + 50

    def test_fresh_claim_never_inherits_a_pulse(self, plan):
        unit = plan.claim("w1", now=T0)
        plan.heartbeat(unit.name, "w1", done=5, total=8, now=T0 + 10)
        again = plan.claim("w2", now=T0 + 100)  # reclaim after expiry
        assert again.heartbeat_at is None
        assert again.progress_done is None and again.progress_total is None
        assert again.claimed_at == T0 + 100

    def test_stale_units_and_reclaim(self, plan):
        unit = plan.claim("w1", now=T0)
        assert plan.stale_units(now=T0 + 10) == []
        assert [u.name for u in plan.stale_units(now=T0 + 60)] \
            == [unit.name]
        reclaimed = plan.reclaim_stale(now=T0 + 60)
        assert [u.name for u in reclaimed] == [unit.name]
        loaded = DispatchPlan.load(plan.root)._unit(unit.name)
        assert loaded.status == "pending" and loaded.owner is None
        assert loaded.attempts == 1  # the spent attempt stays counted
        assert plan.reclaim_stale(now=T0 + 60) == []  # idempotent
        assert plan.claim("w2", now=T0 + 61) is not None

    def test_old_manifest_without_heartbeat_fields_loads(self, plan):
        # Manifests written before the heartbeat fields existed must
        # load as "never heartbeat", not crash.
        manifest = json.loads(plan.manifest_path.read_text())
        for record in manifest["units"]:
            for key in ("claimed_at", "heartbeat_at",
                        "progress_done", "progress_total"):
                del record[key]
        plan.manifest_path.write_text(json.dumps(manifest))
        loaded = DispatchPlan.load(plan.root)
        unit = loaded.units[0]
        assert unit.heartbeat_at is None and unit.claimed_at is None
        assert unit.heartbeat_age(T0) is None
        assert loaded.claim("w1", now=T0) is not None


class TestDispatchCli:
    """plan → claim ×2 → status → collect, through the real CLI."""

    ARGS = ["--grid", "4:1,7:2", "--seeds", "2", "--seed", "11"]

    def test_full_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path / "d")
        assert main(["dispatch", "plan", "--dir", d, "--units", "4",
                     *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "4 x 1 scenario(s) (4 total)" in out

        assert main(["dispatch", "status", d]) == 1  # not finished yet
        assert "0/4 units done" in capsys.readouterr().out

        assert main(["dispatch", "claim", d, "--worker", "w1",
                     "--max-units", "1"]) == 0
        assert main(["dispatch", "claim", d, "--worker", "w2"]) == 0
        out = capsys.readouterr().out
        assert "3 unit(s) as w2" in out and "4/4 units done" in out

        assert main(["dispatch", "status", d]) == 0
        capsys.readouterr()

        merged = tmp_path / "merged.jsonl"
        assert main(["collect", d, "--follow", "--out", str(merged)]) == 0
        assert "4 file(s)" in capsys.readouterr().out

        ref = tmp_path / "ref.jsonl"
        assert main(["sweep", *self.ARGS, "--jsonl", str(ref)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == ref.read_bytes()

    def test_plan_refuses_empty_matrix(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["dispatch", "plan", "--dir", str(tmp_path / "d"),
                  "--seeds", "0"])

    def test_collect_without_shard_dir(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no shard directory"):
            main(["collect", str(tmp_path / "missing")])
