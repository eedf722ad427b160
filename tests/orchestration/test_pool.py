"""The persistent worker pool: transport, reuse, equivalence, errors.

The pooled backend's contract is the serial backend's contract — byte
for byte.  These tests pin it across every instrument combination (cache
on/off x profiler on/off x telemetry attached/absent), through a
mid-sweep resume, and across consecutive ``run_claims`` units, where
the warm-hit counters round-tripped by :meth:`WorkerPool.stats` are the
evidence that workers actually stayed warm.
"""

import json
from collections import Counter

import pytest

from repro.obs.events import (
    EVENT_POOL_STARTED,
    EVENT_SWEEP_FINISHED,
    EventLedger,
    read_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SweepTelemetry
from repro.orchestration import pool as pool_module
from repro.orchestration.dispatch import plan_dispatch, run_claims
from repro.orchestration.matrix import ScenarioMatrix, ScenarioSpec
from repro.orchestration.parallel import (
    INLINE_THRESHOLD,
    sweep_parallel,
    sweep_serial,
)
from repro.orchestration.pool import (
    PoolWorkerError,
    SpecTransport,
    WorkerPool,
    _compact,
    _expand_positions,
    get_pool,
    shutdown_pool,
)
from repro.profiling import PHASE_BUILD_CONFIG, PHASE_SIMULATE, SweepProfiler
from repro.store.cache import ResultCache
from repro.store.shards import encode_record


def pooled_matrix(seeds=range(4)) -> ScenarioMatrix:
    """16 scenarios — comfortably past INLINE_THRESHOLD, so workers=2
    genuinely exercises the pooled path."""
    return ScenarioMatrix(
        sizes=[(4, 1)],
        topologies=["single_bisource", "fully_timely"],
        adversaries=["crash", "two_faced:evil"],
        value_counts=[2],
        seeds=seeds,
    )


def shard_bytes(result) -> list[str]:
    return [encode_record(outcome) for outcome in result.outcomes]


def observed_by(telemetry) -> dict:
    """The sweep kwargs that feed ``telemetry`` (none when it is None)."""
    if telemetry is None:
        return {}
    return {"on_result": telemetry.on_result, "metrics": telemetry.metrics}


def counted(telemetry) -> dict:
    """What an observed run counted, series by series, minus
    ``sweep.pool`` — the one counter only a pooled run bumps."""
    snapshot = telemetry.metrics.snapshot()
    snapshot.pop("sweep.pool", None)
    return snapshot


def ledger_multiset(path) -> Counter:
    """A ledger's records as a multiset, wall and monotonic stamps
    dropped."""
    return Counter(
        json.dumps(
            {k: v for k, v in record.items() if k not in ("ts", "mono")},
            sort_keys=True,
        )
        for record in read_events(path)
    )


def profile_counts(profiler) -> dict:
    """What a profiled sweep counted — no timings, no allocations."""
    # Every label: the report books each run's final event first, which
    # may add one.
    snapshot = profiler.to_dict(top_labels=len(profiler.sim_labels) + 1)
    return {
        "events": snapshot["sim"]["events"],
        "runs": snapshot["sim"]["runs"],
        "labels": {
            name: entry["events"]
            for name, entry in snapshot["sim"]["labels"].items()
        },
        "calls": {
            name: snapshot["phases"][name]["calls"]
            for name in (PHASE_BUILD_CONFIG, PHASE_SIMULATE)
        },
    }


@pytest.fixture(autouse=True)
def fresh_shared_pool():
    """Each test starts and ends without a live shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


class TestTransport:
    def test_compact_round_trips_contiguous_runs(self):
        assert _compact([3, 4, 5, 6]) == ("r", 3, 7)
        assert _expand_positions(("r", 3, 7)) == [3, 4, 5, 6]

    def test_compact_round_trips_scattered_lists(self):
        wire = _compact([0, 2, 5])
        assert wire == ("l", [0, 2, 5])
        assert _expand_positions(wire) == [0, 2, 5]

    def test_matrix_transport_positions_are_spec_indices(self):
        matrix = pooled_matrix()
        transport = SpecTransport.from_matrix(matrix)
        specs = matrix.expand()
        assert transport.kind == "matrix"
        assert transport.positions_for(specs[4:8]) == [4, 5, 6, 7]

    def test_spec_list_transport_maps_arbitrary_indices(self):
        specs = pooled_matrix().expand()[8:12]
        transport = SpecTransport.from_specs(specs)
        assert transport.kind == "specs"
        assert transport.positions_for(reversed(specs)) == [3, 2, 1, 0]

    def test_duplicate_indices_are_rejected(self):
        spec = pooled_matrix().expand()[0]
        with pytest.raises(ValueError, match="duplicate"):
            SpecTransport.from_specs([spec, spec])

    def test_same_matrix_same_uid(self):
        a = SpecTransport.from_matrix(pooled_matrix())
        b = SpecTransport.from_matrix(pooled_matrix())
        c = SpecTransport.from_matrix(pooled_matrix(seeds=range(5)))
        assert a.uid == b.uid
        assert a.uid != c.uid


class TestWorkerPoolDirect:
    def test_ping_stats_and_chunk_round_trip(self):
        matrix = pooled_matrix(seeds=range(1))
        specs = matrix.expand()
        pool = WorkerPool(2)
        try:
            assert pool.ping()
            transport = SpecTransport.from_matrix(matrix)
            job = pool.submit_chunk(
                0, transport, [0, 1], {"check_invariants": False}
            )
            [(done_id, (lines, wall, exports))] = pool.wait_any()
            assert done_id == job
            assert wall > 0 and exports == []
            assert [json.loads(line)["seed"] for line in lines] == [
                specs[0].seed, specs[1].seed,
            ]
            stats = pool.stats()
            assert len(stats) == 2
            assert stats[0]["runs"] == 2
            assert stats[1]["runs"] == 0
        finally:
            pool.shutdown()

    def test_universe_decode_errors_surface_at_the_chunk(self):
        pool = WorkerPool(1)
        try:
            bad = SpecTransport("bad-uid", "specs", [{"nope": 1}], {0: 0})
            pool.submit_chunk(0, bad, [0], {})
            with pytest.raises(Exception):
                pool.wait_any()
            # The worker survives its own bad universe.
            assert pool.ping()
        finally:
            pool.shutdown()

    def test_scenario_errors_reraise_with_original_type(self):
        pool = WorkerPool(1)
        try:
            matrix = pooled_matrix(seeds=range(1))
            transport = SpecTransport.from_matrix(matrix)
            pool.submit_chunk(0, transport, [10_000], {})
            with pytest.raises(IndexError) as excinfo:
                pool.wait_any()
            assert "pool worker" in "".join(
                getattr(excinfo.value, "__notes__", [])
            )
        finally:
            pool.shutdown()

    def test_dead_worker_raises_pool_error(self):
        pool = WorkerPool(1)
        try:
            pool._workers[0].process.terminate()
            pool._workers[0].process.join(timeout=2.0)
            with pytest.raises(PoolWorkerError, match="died"):
                pool.ping()
        finally:
            pool.shutdown()


class TestSharedPool:
    def test_get_pool_reuses_until_size_changes(self):
        a, spawned_a = get_pool(2)
        b, spawned_b = get_pool(2)
        assert a is b and spawned_a and not spawned_b
        c, spawned_c = get_pool(1)
        assert spawned_c and c is not a and a.closed

    def test_axis_registry_change_respawns_the_pool(self):
        from repro.orchestration.axes import AXES, Axis

        a, _ = get_pool(1)
        axis = AXES.register(Axis(name="pool_probe", default=0, parse=int))
        try:
            b, spawned = get_pool(1)
            assert spawned and b is not a and a.closed
        finally:
            AXES.unregister(axis.name)

    def test_active_pool_hands_out_a_private_one(self):
        shared, _ = get_pool(1)
        shared.active = True
        try:
            private, spawned = get_pool(1)
            assert spawned and private is not shared and not private.shared
            private.shutdown()
        finally:
            shared.active = False


class TestPooledEquivalence:
    @pytest.mark.parametrize("with_cache", [False, True])
    @pytest.mark.parametrize("with_profiler", [False, True])
    @pytest.mark.parametrize("with_telemetry", [False, True])
    def test_bit_identical_to_serial(
        self, tmp_path, with_cache, with_profiler, with_telemetry
    ):
        matrix = pooled_matrix()
        serial = sweep_serial(matrix)
        cache = ResultCache(tmp_path / "cache") if with_cache else None
        profiler = SweepProfiler() if with_profiler else None
        telemetry = (
            SweepTelemetry(metrics=MetricsRegistry()) if with_telemetry
            else None
        )
        pooled = sweep_parallel(
            matrix, workers=2, cache=cache, profiler=profiler,
            **observed_by(telemetry),
        )
        assert shard_bytes(pooled) == shard_bytes(serial)
        assert pooled.report == serial.report
        if with_profiler:
            snapshot = profiler.to_dict()
            assert snapshot["phases"][PHASE_SIMULATE]["seconds"] > 0
            assert snapshot["sim"]["runs"] == 16
            # Counted in the workers, every count equals the in-process
            # one: events, runs, per-label events and per-phase calls.
            in_process = SweepProfiler()
            sweep_serial(matrix, profiler=in_process)
            assert profile_counts(profiler) == profile_counts(in_process)
        if with_telemetry:
            assert telemetry.scenarios == 16
            # The ledger's numbers too: counted in the workers, every
            # kernel.* series and sweep.scenarios equal the in-process ones.
            in_process = SweepTelemetry(metrics=MetricsRegistry())
            sweep_serial(matrix, **observed_by(in_process))
            assert counted(telemetry) == counted(in_process)
            assert telemetry.metrics.counter("kernel.runs").total() == 16

    def test_resume_mid_sweep_is_bit_identical(self, tmp_path):
        matrix = pooled_matrix()
        serial = sweep_serial(matrix)
        cache = ResultCache(tmp_path / "cache")
        # A previous run died six scenarios in; its cache survives.
        sweep_serial(matrix.expand()[:6], cache=cache)
        resumed = sweep_parallel(matrix, workers=2, cache=cache)
        assert resumed.cache_hits == 6
        assert shard_bytes(resumed) == shard_bytes(serial)
        # The written shard reuses worker bytes yet matches exactly.
        path = resumed.write_jsonl(tmp_path / "resumed.jsonl")
        assert path.read_text().splitlines(keepends=True) \
            == shard_bytes(serial)

    def test_worker_side_cache_puts_are_readable_by_the_parent(
        self, tmp_path
    ):
        matrix = pooled_matrix()
        cache = ResultCache(tmp_path / "cache")
        first = sweep_parallel(matrix, workers=2, cache=cache)
        assert first.cache_hits == 0
        second = sweep_parallel(matrix, workers=2, cache=cache)
        assert second.cache_hits == 16
        assert shard_bytes(first) == shard_bytes(second)

    def test_small_sweeps_dispatch_inline_without_a_pool(self):
        specs = pooled_matrix().expand()[: INLINE_THRESHOLD - 1]
        result = sweep_parallel(specs, workers=2)
        assert len(result.outcomes) == len(specs)
        assert pool_module._SHARED is None

    def test_explicit_chunksize_still_pools(self):
        matrix = pooled_matrix()
        pooled = sweep_parallel(matrix, workers=2, chunksize=3)
        assert shard_bytes(pooled) == shard_bytes(sweep_serial(matrix))
        assert pool_module._SHARED is not None

    def test_pool_startup_attributed_to_the_cold_sweep_only(self):
        matrix = pooled_matrix()
        cold = sweep_parallel(matrix, workers=2)
        warm = sweep_parallel(matrix, workers=2)
        assert cold.pool_startup_seconds > 0
        assert warm.pool_startup_seconds == 0.0

    def test_pool_started_event_lands_in_the_ledger(self, tmp_path):
        ledger_path = tmp_path / "events.jsonl"
        telemetry = SweepTelemetry(
            ledger=EventLedger(ledger_path), metrics=MetricsRegistry()
        )
        result = sweep_parallel(
            pooled_matrix(), workers=2, **observed_by(telemetry)
        )
        # Read off the result when the sweep is recorded as finished, so
        # the finish record's snapshot already counts the pool.
        telemetry.sweep_finished(result)
        telemetry.ledger.close()
        events = list(read_events(ledger_path))
        assert [e["type"] for e in events[-2:]] == [
            EVENT_POOL_STARTED, EVENT_SWEEP_FINISHED,
        ]
        started = events[-2]
        assert started["workers"] == 2 and not started["reused"]
        assert started["startup_seconds"] == round(
            result.pool_startup_seconds, 6
        ) > 0
        pool_counter = events[-1]["metrics"]["sweep.pool"]["series"]
        assert pool_counter == [
            {"labels": {"state": "spawned"}, "value": 1.0}
        ]

    def test_on_result_sees_every_scenario(self):
        seen = []
        sweep_parallel(
            pooled_matrix(), workers=2,
            on_result=lambda o, cached: seen.append((o, cached)),
        )
        assert sorted(o.spec.index for o, _ in seen) == list(range(16))
        assert not any(cached for _, cached in seen)

    def test_raising_on_result_hands_the_pool_back(self):
        # The dispatch loop is a generator the sweep body must close: a
        # callback that raises mid-sweep propagates, and the shared pool
        # is neither left marked busy nor unusable.
        matrix = pooled_matrix()
        seen = []

        def on_result(outcome, cached):
            seen.append(outcome)
            if len(seen) == 3:
                raise RuntimeError("observer gave up")

        with pytest.raises(RuntimeError, match="observer gave up"):
            sweep_parallel(matrix, workers=2, on_result=on_result)
        assert len(seen) == 3
        pool = pool_module._SHARED
        assert pool is not None and not pool.active and not pool.closed
        again = sweep_parallel(matrix, workers=2)
        assert pool_module._SHARED is pool and again.pool_startup_seconds == 0.0
        assert shard_bytes(again) == shard_bytes(sweep_serial(matrix))

    def test_explicit_pool_is_left_alive_for_the_caller(self):
        pool = WorkerPool(2)
        try:
            matrix = pooled_matrix()
            a = sweep_parallel(matrix, workers=2, pool=pool)
            b = sweep_parallel(matrix, workers=2, pool=pool)
            assert not pool.closed
            assert shard_bytes(a) == shard_bytes(b)
            runs = sum(s["runs"] for s in pool.stats())
            assert runs == 32
        finally:
            pool.shutdown()


class TestOneOutcomeHook:
    """Every outcome reaches the sweep's one callback, flagged ``cached``
    exactly when the result store served it, and the telemetry that
    callback feeds writes the in-process ledger at any worker count."""

    @pytest.mark.parametrize("mode", ["serial", "pooled", "resumed"])
    def test_cached_flags_and_ledger_match_in_process(self, tmp_path, mode):
        matrix = pooled_matrix()
        # "resumed": a previous run died six scenarios in; its cache
        # survives and serves them.
        warm = 6 if mode == "resumed" else 0

        def observe(name, workers):
            cache = ResultCache(tmp_path / name)
            if warm:
                sweep_serial(matrix.expand()[:warm], cache=cache)
            telemetry = SweepTelemetry(
                ledger=EventLedger(tmp_path / f"{name}.jsonl"),
                metrics=MetricsRegistry(),
            )
            seen = []

            def on_result(outcome, cached):
                seen.append((outcome.spec.index, cached))
                telemetry.on_result(outcome, cached)

            result = sweep_parallel(
                matrix, workers=workers, cache=cache, on_result=on_result,
                metrics=telemetry.metrics,
            )
            telemetry.ledger.close()
            return result, seen, telemetry

        workers = 1 if mode == "serial" else 2
        result, seen, telemetry = observe("swept", workers)
        assert result.workers == workers and result.cache_hits == warm
        # Cache hits first, in matrix order, then every fresh outcome.
        assert seen[:warm] == [(index, True) for index in range(warm)]
        assert sorted(seen[warm:]) == [
            (index, False) for index in range(warm, 16)
        ]
        _, _, in_process = observe("in_process", 1)
        assert ledger_multiset(tmp_path / "swept.jsonl") \
            == ledger_multiset(tmp_path / "in_process.jsonl")
        assert counted(telemetry) == counted(in_process)
        assert (telemetry.scenarios, telemetry.cache_hits) == (16, warm)


class TestPooledInstrumentConfiguration:
    """A worker chunk runs under twins of the parent's instruments, so
    the profiler's configuration holds on the worker side too."""

    def test_alloc_mode_books_worker_side_blocks(self):
        profiler = SweepProfiler(alloc=True)
        sweep_parallel(pooled_matrix(), workers=2, profiler=profiler)
        assert profiler.phases[PHASE_SIMULATE].blocks != 0
        assert any(
            stat.blocks != 0
            for name, stat in profiler.sim_labels.items()
            if name.startswith("tag:")
        )

    def test_sim_steps_off_arms_no_worker_step_sink(self):
        profiler = SweepProfiler(sim_steps=False)
        sweep_parallel(pooled_matrix(), workers=2, profiler=profiler)
        assert profiler.phases[PHASE_SIMULATE].calls == 16
        assert profiler.sim_events == 0 and profiler.runs == 0
        assert profiler.sim_labels == {}


class TestRunClaimsReuse:
    def test_warm_hit_counters_rise_across_units(self, tmp_path):
        matrix = pooled_matrix()
        plan = plan_dispatch(matrix, tmp_path / "fleet", units=2)
        done_first = run_claims(
            plan, worker="w1", workers=2, max_units=1
        )
        assert len(done_first) == 1
        pool_a = pool_module._SHARED
        assert pool_a is not None
        first = pool_a.stats()
        done_rest = run_claims(plan, worker="w1", workers=2)
        assert len(done_rest) == 1 and plan.finished
        assert pool_module._SHARED is pool_a, "units must share one pool"
        second = pool_a.stats()
        assert sum(s["runs"] for s in second) == 16
        assert sum(s["runs"] for s in second) \
            > sum(s["runs"] for s in first)
        # The second unit's scenarios hit the warm topology/adversary
        # caches populated by the first — that is the reclaimed cost.
        assert sum(s["topology_hits"] for s in second) \
            > sum(s["topology_hits"] for s in first)
        assert sum(s["adversary_hits"] for s in second) \
            > sum(s["adversary_hits"] for s in first)
        # The matrix universe was shipped once per worker, not per unit.
        assert all(s["universes"] == 1 for s in second if s["runs"])

    def test_pooled_units_merge_bit_identical_to_serial(self, tmp_path):
        matrix = pooled_matrix()
        serial = sweep_serial(matrix)
        ledgers = {}
        for workers in (1, 2):
            plan = plan_dispatch(matrix, tmp_path / f"fleet{workers}", units=2)
            telemetry = SweepTelemetry(metrics=MetricsRegistry())
            run_claims(
                plan, worker="w1", workers=workers, telemetry=telemetry
            )
            ledgers[workers] = counted(telemetry)
            lines = []
            for unit in plan.units:
                lines.extend(
                    plan.shard_path(unit).read_text().splitlines(keepends=True)
                )
            by_index = sorted(lines, key=lambda l: json.loads(l)["index"])
            assert by_index == shard_bytes(serial)
        # unit_completed.metrics has no hole next to the serial ledger.
        assert ledgers[2] == ledgers[1]
        assert ledgers[2]["kernel.runs"]["series"][0]["value"] == 16

    def test_serial_backend_context_also_stays_warm(self, tmp_path):
        from repro.orchestration.kernel import default_context

        matrix = pooled_matrix(seeds=range(2))
        plan = plan_dispatch(matrix, tmp_path / "fleet", units=2)
        context = default_context()
        before = dict(context.stats())
        run_claims(plan, worker="w1")
        after = context.stats()
        gained = after["topology_hits"] - before["topology_hits"]
        # 8 scenarios, 2 distinct topologies: at least 6 warm hits, and
        # they keep accruing across both units of the plan.
        assert gained >= 6
