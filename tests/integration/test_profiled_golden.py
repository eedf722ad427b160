"""Profiling must be observably free: profiled runs stay bit-identical.

The profiler attaches a wall-clock sink to the ``sim.step`` probe and
wraps harness stages in timers — none of which may perturb a single
observable bit of any seeded run.  These tests re-run the frozen golden
fixtures (``tests/golden/golden_traces.json``) and the PR-2 compat
record with a profiler armed and require byte-identical fingerprints:
same trace digests, same spec digests, same sweep JSONL bytes.
"""

import json

import pytest

from repro.orchestration.kernel import default_context
from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import sweep_serial
from repro.profiling import SweepProfiler
from repro.store.cache import scenario_key
from tests.golden_kernel import (
    _sha256,
    golden_configs,
    golden_matrix,
    load_fixture,
    run_fingerprint,
)
from tests.store.test_compat import LEGACY_RECORD, legacy_matrix


@pytest.fixture
def armed_profiler():
    """A profiler installed on the process-local kernel context, exactly
    as the sweep installs it."""
    profiler = SweepProfiler()
    with profiler.measuring(), default_context().instrumented([profiler]):
        yield profiler


class TestProfiledGoldenRuns:
    @pytest.mark.parametrize("name", sorted(golden_configs()))
    def test_traced_run_fingerprint_is_unchanged(
        self, name, armed_profiler, monkeypatch
    ):
        # Route the golden run through the kernel context (the sweep
        # path), so fresh_bus arms the profiler's step sink for it.
        import tests.golden_kernel as golden_kernel
        from repro.orchestration.runner import run_consensus

        monkeypatch.setattr(
            golden_kernel, "run_consensus",
            lambda config: run_consensus(config, context=default_context()),
        )
        frozen = load_fixture()["runs"][name]
        assert run_fingerprint(golden_configs()[name]) == frozen
        assert armed_profiler.sim_events > 0

    def test_profiled_sweep_fingerprint_is_unchanged(self):
        frozen = load_fixture()["sweep"]
        matrix = golden_matrix()
        specs = matrix.expand()
        profiler = SweepProfiler()
        sweep = sweep_serial(matrix, profiler=profiler)
        jsonl = "".join(
            json.dumps(outcome.to_record(), sort_keys=True) + "\n"
            for outcome in sweep.outcomes
        )
        assert _sha256(jsonl) == frozen["jsonl_sha256"]
        assert [
            scenario_key(spec, salt="golden") for spec in specs
        ] == frozen["spec_digests"]
        assert [spec.seed for spec in specs] == frozen["seeds"]
        assert sweep.report.decided_runs == frozen["decided_runs"]
        assert profiler.sim_events > 0

    def test_profiled_jsonl_bytes_match_unprofiled_sweep(self, tmp_path):
        matrix = ScenarioMatrix(
            sizes=[(4, 1)], adversaries=["crash", "two_faced:evil"],
            seeds=range(2), base_seed=31,
        )
        plain = sweep_serial(matrix).write_jsonl(tmp_path / "plain.jsonl")
        profiler = SweepProfiler()
        profiled = sweep_serial(matrix, profiler=profiler).write_jsonl(
            tmp_path / "profiled.jsonl", profiler=profiler
        )
        assert profiled.read_bytes() == plain.read_bytes()


class TestProfiledCompatRecord:
    def test_pr2_record_is_reproduced_under_the_profiler(self):
        profiler = SweepProfiler()
        sweep = sweep_serial(legacy_matrix(), profiler=profiler)
        [outcome] = sweep.outcomes
        assert outcome.to_record() == LEGACY_RECORD
