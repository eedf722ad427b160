"""In-process vs pooled sweep equivalence, aggregation, persistence."""

import json

import pytest

from repro.orchestration.matrix import ScenarioMatrix, build_config
from repro.orchestration.parallel import (
    SweepResult,
    default_workers,
    sweep_parallel,
    sweep_serial,
)
from repro.orchestration.runner import run_consensus


def small_matrix(seeds=range(2)) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=[(4, 1)],
        topologies=["single_bisource", "fully_timely"],
        adversaries=["crash", "two_faced:evil"],
        value_counts=[2],
        seeds=seeds,
    )


def assert_equivalent(a: SweepResult, b: SweepResult) -> None:
    assert len(a.outcomes) == len(b.outcomes)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.spec == y.spec
        assert x.decisions == y.decisions
        assert x.rounds == y.rounds
        assert x.messages_sent == y.messages_sent
        assert x.finished_at == y.finished_at


class TestSweepSerial:
    def test_matrix_order_and_aggregates(self):
        sweep = sweep_serial(small_matrix())
        assert [o.spec.index for o in sweep.outcomes] == list(range(8))
        assert sweep.workers == 1
        assert sweep.report.runs == 8
        assert sweep.report.decide_rate == 1.0
        assert sweep.report.all_safe
        assert len(sweep.report.cells) == 4

    def test_on_result_streams_in_order(self):
        seen = []
        sweep = sweep_serial(
            small_matrix(), on_result=lambda o, cached: seen.append((o, cached))
        )
        assert seen == [(outcome, False) for outcome in sweep.outcomes]

    def test_accepts_spec_list(self):
        specs = small_matrix().expand()[:3]
        sweep = sweep_serial(specs)
        assert len(sweep.outcomes) == 3

    def test_hand_built_specs_keep_input_order(self):
        # Specs built outside a matrix all default to index 0; the
        # engine must re-index so result order follows input order even
        # under out-of-order parallel completion.
        from repro.orchestration.matrix import ScenarioSpec

        specs = [
            ScenarioSpec(n=4, t=1, topology="single_bisource",
                         adversary="crash", num_values=2, seed=s)
            for s in (11, 22, 33, 44, 55, 66)
        ]
        serial = sweep_serial(specs)
        parallel = sweep_parallel(specs, workers=3, chunksize=1)
        assert [o.spec.seed for o in serial.outcomes] == [11, 22, 33, 44, 55, 66]
        assert [o.spec.seed for o in parallel.outcomes] == [11, 22, 33, 44, 55, 66]
        assert_equivalent(serial, parallel)


class TestSweepParallel:
    def test_equivalent_to_serial(self):
        matrix = small_matrix()
        assert_equivalent(
            sweep_serial(matrix), sweep_parallel(matrix, workers=2)
        )

    def test_chunked_dispatch_preserves_order(self):
        matrix = small_matrix()
        sweep = sweep_parallel(matrix, workers=2, chunksize=3)
        assert [o.spec.index for o in sweep.outcomes] == list(range(8))

    def test_on_result_sees_every_scenario(self):
        seen = []
        sweep = sweep_parallel(
            small_matrix(), workers=2, chunksize=2,
            on_result=lambda o, cached: seen.append((o, cached)),
        )
        assert sorted(o.spec.index for o, _ in seen) == list(range(8))
        assert not any(cached for _, cached in seen)
        assert len(sweep.outcomes) == 8

    def test_single_worker_degrades_to_serial(self):
        matrix = small_matrix()
        sweep = sweep_parallel(matrix, workers=1)
        assert sweep.workers == 1
        assert_equivalent(sweep, sweep_serial(matrix))

    def test_a_sweep_that_never_reaches_the_pool_reports_one_worker(
        self, tmp_path
    ):
        # Below INLINE_THRESHOLD, or with everything served from the
        # cache, nothing goes to the pool whatever count was requested.
        from repro.store.cache import ResultCache

        few = sweep_parallel(
            ScenarioMatrix(sizes=[(4, 1)], seeds=range(3)), workers=4
        )
        assert len(few.outcomes) == 3 and few.workers == 1
        cache = ResultCache(tmp_path / "cache")
        sweep_serial(small_matrix(), cache=cache)
        warm = sweep_parallel(small_matrix(), workers=4, cache=cache)
        assert warm.cache_hits == 8 and warm.workers == 1
        assert warm.pool_startup_seconds == 0.0


class TestOneSweepBody:
    """``sweep_serial`` is ``sweep_parallel(workers=1)``, whatever rides
    along."""

    @pytest.mark.parametrize("with_cache", [False, True])
    @pytest.mark.parametrize("with_profiler", [False, True])
    @pytest.mark.parametrize("with_telemetry", [False, True])
    def test_serial_is_one_worker(
        self, tmp_path, with_cache, with_profiler, with_telemetry
    ):
        from repro.obs.telemetry import SweepTelemetry
        from repro.profiling import SweepProfiler
        from repro.store.cache import ResultCache

        telemetry = {}

        def kwargs(name):
            kw = {}
            if with_cache:
                kw["cache"] = ResultCache(tmp_path / name)
            if with_profiler:
                kw["profiler"] = SweepProfiler()
            if with_telemetry:
                telemetry[name] = SweepTelemetry()
                kw["on_result"] = telemetry[name].on_result
            return kw

        matrix = small_matrix()
        for _ in ("cold", "warm"):  # the second pass is all cache hits
            a_kw, b_kw = kwargs("a"), kwargs("b")
            a = sweep_serial(matrix, **a_kw)
            b = sweep_parallel(matrix, workers=1, **b_kw)
            assert a.outcomes == b.outcomes and a.report == b.report
            assert (a.workers, a.cache_hits) == (b.workers, b.cache_hits)
            assert a.pool_startup_seconds == b.pool_startup_seconds == 0.0
            if with_profiler:
                calls = lambda kw: {
                    name: stat.calls
                    for name, stat in kw["profiler"].phases.items()
                }
                assert calls(a_kw) == calls(b_kw)
            if with_telemetry:
                assert telemetry["a"].scenarios == telemetry["b"].scenarios == 8

    def test_empty_spec_list(self):
        for sweep in (sweep_serial([]), sweep_parallel([], workers=2)):
            assert sweep.outcomes == [] and sweep.report.runs == 0


class TestDefaultWorkers:
    def test_positive(self):
        assert default_workers() >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "-4")
        assert default_workers() == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "many")
        assert default_workers() >= 1

    def test_matches_affinity_when_available(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert default_workers() == max(1, len(os.sched_getaffinity(0)))


class TestSweepSeedsEquivalence:
    def test_identical_decisions_and_rounds_per_seed(self):
        # One grid cell across seeds: a plain per-seed run_consensus loop
        # and the pooled matrix engine must produce identical runs.
        matrix = ScenarioMatrix(
            sizes=[(4, 1)], adversaries=["two_faced:evil"], seeds=range(4)
        )
        specs = matrix.expand()
        legacy = [
            run_consensus(build_config(spec), check_invariants=True)
            for spec in specs
        ]
        parallel = sweep_parallel(matrix, workers=2, chunksize=1)
        assert len(legacy) == len(parallel.outcomes) == 4
        for run, outcome in zip(legacy, parallel.outcomes):
            assert {p: repr(v) for p, v in run.decisions.items()} == outcome.decisions
            assert run.rounds == outcome.rounds
            assert run.messages_sent == outcome.messages_sent


class TestSweepResult:
    def test_jsonl_round_trip(self, tmp_path):
        sweep = sweep_serial(small_matrix(seeds=range(1)))
        path = sweep.write_jsonl(tmp_path / "out" / "sweep.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(sweep.outcomes)
        records = [json.loads(line) for line in lines]
        for record, outcome in zip(records, sweep.outcomes):
            assert record["cell_id"] == outcome.spec.cell_id
            assert record["decided"] is outcome.decided
            assert record["seed"] == outcome.spec.seed
            assert record["invariants_ok"] is outcome.invariants_ok
            assert record["rounds"] == {
                str(p): r for p, r in outcome.rounds.items()
            }

    def test_throughput_property(self):
        sweep = sweep_serial(small_matrix(seeds=range(1)))
        assert sweep.elapsed > 0
        assert sweep.scenarios_per_second > 0

    def test_jsonl_overwrite_is_atomic(self, tmp_path):
        # Re-persisting over an existing shard must replace it whole and
        # leave no temp litter (temp file + rename, never truncate).
        sweep = sweep_serial(small_matrix(seeds=range(1)))
        path = tmp_path / "sweep.jsonl"
        sweep.write_jsonl(path)
        first = path.read_text()
        sweep.write_jsonl(path)
        assert path.read_text() == first
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_jsonl_creates_nested_parents(self, tmp_path):
        sweep = sweep_serial(small_matrix(seeds=range(1)))
        path = sweep.write_jsonl(tmp_path / "a" / "b" / "c" / "sweep.jsonl")
        assert path.exists()
        assert len(path.read_text().splitlines()) == len(sweep.outcomes)

    def test_cache_hits_default_zero(self):
        sweep = sweep_serial(small_matrix(seeds=range(1)))
        assert sweep.cache_hits == 0
        assert sweep.executed == len(sweep.outcomes)


@pytest.mark.slow
class TestLargeMatrixEquivalence:
    def test_64_scenarios_4_workers_bit_identical(self):
        matrix = ScenarioMatrix(
            sizes=[(4, 1), (7, 2)],
            topologies=["single_bisource", "fully_timely"],
            adversaries=["crash", "two_faced:evil", "mute_coord",
                         "collude:evil"],
            value_counts=[1, 2],
            seeds=range(2),
        )
        assert len(matrix) == 64
        serial = sweep_serial(matrix)
        parallel = sweep_parallel(matrix, workers=4)
        assert_equivalent(serial, parallel)
        assert parallel.report.decide_rate == 1.0
        assert parallel.report.all_safe


class TestShardSlice:
    def test_shards_partition_the_sweep_exactly(self):
        from repro.orchestration.parallel import shard_slice

        matrix = small_matrix(seeds=range(3))
        full = matrix.expand()
        count = 3
        shards = [shard_slice(matrix, i, count) for i in range(1, count + 1)]
        # exact partition: disjoint, exhaustive, balanced within one
        combined = [spec for shard in shards for spec in shard]
        assert sorted(combined, key=lambda s: s.index) == full
        assert len({spec.index for spec in combined}) == len(full)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_the_full_sweep(self):
        from repro.orchestration.parallel import shard_slice

        matrix = small_matrix()
        assert shard_slice(matrix, 1, 1) == matrix.expand()

    def test_shard_sweeps_merge_to_the_unsharded_sweep(self, tmp_path):
        from repro.store.shards import merge_shards

        matrix = small_matrix(seeds=range(2))
        from repro.orchestration.parallel import shard_slice

        full_path = tmp_path / "full.jsonl"
        sweep_serial(matrix).write_jsonl(full_path)
        paths = []
        for i in (1, 2):
            path = tmp_path / f"shard{i}.jsonl"
            sweep_serial(shard_slice(matrix, i, 2)).write_jsonl(path)
            paths.append(path)
        merged = merge_shards(paths)
        reference = merge_shards([full_path])
        assert [o.to_record() for o in merged.outcomes] == \
            [o.to_record() for o in reference.outcomes]

    def test_bad_indices_rejected(self):
        from repro.orchestration.parallel import shard_slice

        matrix = small_matrix()
        with pytest.raises(ValueError, match="shard index"):
            shard_slice(matrix, 0, 3)
        with pytest.raises(ValueError, match="shard index"):
            shard_slice(matrix, 4, 3)
        with pytest.raises(ValueError, match="shard count"):
            shard_slice(matrix, 1, 0)


class TestAdaptiveChunking:
    def test_adaptive_dispatch_matches_serial(self):
        # chunksize=None is the adaptive path; results must stay
        # bit-identical to serial regardless of how chunks were sized.
        matrix = small_matrix()
        assert_equivalent(
            sweep_serial(matrix), sweep_parallel(matrix, workers=2)
        )

    def test_worker_chunks_report_wall_time(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.orchestration.kernel import default_context
        from repro.orchestration.pool import _run_pooled_chunk

        specs, context = small_matrix().expand(), default_context()
        lines, elapsed, exports = _run_pooled_chunk(
            specs, [0, 1], {}, context, None
        )
        assert len(lines) == 2
        # An unobserved chunk installs no instrument and ships no export.
        assert elapsed > 0 and exports == []
        twin = MetricsRegistry().twin()
        observed = _run_pooled_chunk(
            specs, [0, 1], {"instruments": [twin]}, context, None
        )
        # The twin was installed for the chunk only, and its one export
        # is the chunk's counts.
        assert observed[0] == lines and context.instruments == ()
        assert observed[2] == [twin.export()]
        assert observed[2][0]["kernel.runs"] == [((), 2.0)]

    def test_explicit_chunksize_still_fixed(self):
        matrix = small_matrix()
        sweep = sweep_parallel(matrix, workers=2, chunksize=3)
        assert [o.spec.index for o in sweep.outcomes] == list(range(8))
