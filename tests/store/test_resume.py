"""Resume planning and cache-aware sweeps, in-process and pooled."""

import pytest

from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import (
    INLINE_THRESHOLD,
    sweep_parallel,
    sweep_serial,
)
from repro.store import ResultCache, plan_resume


def matrix(seeds=range(2)) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=[(4, 1)],
        topologies=["single_bisource", "fully_timely"],
        adversaries=["crash", "two_faced:evil"],
        value_counts=[2],
        seeds=seeds,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestPlanResume:
    def test_empty_store_plans_everything(self, cache):
        plan = plan_resume(matrix(), cache)
        assert plan.cached == [] and len(plan.missing) == 8
        assert plan.total == 8 and not plan.complete
        assert "0/8 scenarios cached, 8 to run" == plan.describe()

    def test_full_store_plans_nothing(self, cache):
        sweep_serial(matrix(), cache=cache)
        plan = plan_resume(matrix(), cache)
        assert plan.complete and len(plan.cached) == 8
        assert [o.spec.index for o in plan.cached] == list(range(8))

    def test_grown_matrix_plans_only_new_cells(self, cache):
        sweep_serial(matrix(), cache=cache)
        plan = plan_resume(matrix(seeds=range(4)), cache)
        assert len(plan.cached) == 8 and len(plan.missing) == 8
        assert {spec.seed_index for spec in plan.missing} == {2, 3}


class TestCacheAwareSweeps:
    def test_second_run_executes_zero_and_is_bit_identical(self, cache):
        cold = sweep_serial(matrix(), cache=cache)
        assert cold.executed == 8 and cold.cache_hits == 0
        warm = sweep_serial(matrix(), cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 8
        assert warm.outcomes == cold.outcomes
        assert warm.report == cold.report

    def test_all_backends_share_one_store(self, cache):
        cold = sweep_parallel(matrix(), workers=2, cache=cache)
        assert cold.executed == 8 and cold.workers == 2
        via_serial = sweep_serial(matrix(), cache=cache)
        via_pool = sweep_parallel(matrix(), workers=2, cache=cache)
        assert via_serial.executed == 0 and via_pool.executed == 0
        assert via_serial.outcomes == cold.outcomes
        assert via_pool.outcomes == cold.outcomes

    def test_partial_cache_runs_only_the_gap(self, cache):
        sweep_serial(matrix(), cache=cache)
        grown = matrix(seeds=range(4))
        result = sweep_serial(grown, cache=cache)
        assert result.cache_hits == 8 and result.executed == 8
        # The merged result is indistinguishable from a fresh full run.
        fresh = sweep_serial(grown)
        assert result.outcomes == fresh.outcomes
        assert result.report == fresh.report

    def test_parallel_backend_fills_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cold = sweep_parallel(matrix(), workers=2, chunksize=2, cache=cache)
        assert cold.executed == 8 and len(cache) == 8
        warm = sweep_parallel(matrix(), workers=2, cache=cache)
        assert warm.executed == 0
        assert warm.outcomes == cold.outcomes

    def test_on_result_sees_cached_outcomes_too(self, cache):
        sweep_serial(matrix(), cache=cache)
        seen = []
        sweep_serial(
            matrix(), cache=cache,
            on_result=lambda o, cached: seen.append((o.spec.index, cached)),
        )
        assert seen == [(index, True) for index in range(8)]

    def test_checking_sweeps_never_read_from_cache(self, cache):
        # check_invariants promises a violation *raises*; a violating
        # outcome served from the store would bypass that, so checking
        # sweeps re-execute everything (and still write back).
        sweep_serial(matrix(), cache=cache)
        checked = sweep_serial(matrix(), check_invariants=True, cache=cache)
        assert checked.cache_hits == 0 and checked.executed == 8

    def test_error_outcomes_are_not_cached(self, tmp_path):
        # Errors may be environmental (memory pressure, ...); caching
        # one would poison every future sweep of the cell.  The list is
        # long enough that two workers really go through the pool.  (A
        # loop, not a parametrisation: the test keeps its id.)
        from dataclasses import replace

        good = matrix().expand()[:INLINE_THRESHOLD]
        specs = good + [replace(good[0], adversary="wizardry",
                                index=len(good))]
        for workers in (1, 2):
            cache = ResultCache(tmp_path / f"cache{workers}")
            first = sweep_parallel(specs, workers=workers, cache=cache)
            assert first.workers == workers
            assert [o.error is None for o in first.outcomes] == (
                [True] * len(good) + [False]
            )
            assert len(cache) == len(good)
            second = sweep_parallel(specs, workers=workers, cache=cache)
            assert second.cache_hits == len(good) and second.executed == 1

    def test_warm_elapsed_includes_cache_reads(self, cache):
        sweep_serial(matrix(), cache=cache)
        warm = sweep_serial(matrix(), cache=cache)
        assert warm.elapsed > 0 and warm.scenarios_per_second > 0
