"""Unit tests for the experiment runner."""

import gc
import warnings

import pytest

from repro import RunConfig, run_consensus
from repro.adversary import crash, two_faced
from repro.net import fully_timely
from repro.orchestration.runner import default_topology


class TestDefaultTopology:
    def test_minimal_bisource_at_lowest_correct(self):
        config = RunConfig(n=4, t=1, proposals={2: "v", 3: "v", 4: "v"},
                           adversaries={1: crash()})
        topo = default_topology(config)
        assert topo.bisource == 2
        assert topo.x_minus is not None

    def test_k_widens_default_topology(self):
        config = RunConfig(n=7, t=2,
                           proposals={1: "a", 2: "a", 3: "a", 4: "a", 5: "a"},
                           adversaries={6: crash(), 7: crash()}, k=1)
        topo = default_topology(config)
        assert len(topo.x_minus) == 4  # t + 1 + k


class TestResultSurface:
    def test_full_result_fields(self):
        result = run_consensus(
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v"},
                      adversaries={4: crash()}, seed=1)
        )
        assert result.all_decided
        assert result.decided_value == "v"
        assert result.messages_sent > 0
        assert result.events_processed > 0
        assert result.finished_at > 0
        assert set(result.rounds) == {1, 2, 3}
        assert result.sent_by_tag.get("RB_ECHO", 0) > 0
        assert result.invariants.ok
        assert result.network is not None

    def test_decided_value_raises_when_none(self):
        from repro.errors import ConfigurationError

        result = run_consensus(
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v"},
                      adversaries={4: crash()}, seed=1,
                      max_rounds=0, max_time=200.0)
        )
        with pytest.raises(ConfigurationError):
            result.decided_value

    def test_determinism(self):
        def run(seed):
            return run_consensus(
                RunConfig(n=4, t=1, proposals={1: "a", 2: "b", 3: "a"},
                          adversaries={4: two_faced("evil")}, seed=seed)
            )

        a, b = run(5), run(5)
        assert a.decisions == b.decisions
        assert a.decision_times == b.decision_times
        assert a.messages_sent == b.messages_sent
        assert a.finished_at == b.finished_at

    def test_different_seeds_differ_somewhere(self):
        def run(seed):
            return run_consensus(
                RunConfig(n=4, t=1, proposals={1: "a", 2: "b", 3: "a"},
                          adversaries={4: crash()}, seed=seed)
            )

        runs = [run(seed) for seed in range(4)]
        finish_times = {r.finished_at for r in runs}
        assert len(finish_times) > 1

    def test_explicit_topology_used(self):
        result = run_consensus(
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v"},
                      adversaries={4: crash()}, topology=fully_timely(4),
                      seed=1)
        )
        # Fully timely: everything lands within delta bounds, so the run
        # is quick in virtual time.
        assert result.finished_at < 100.0

    def test_max_events_budget_reports_timeout(self):
        result = run_consensus(
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v"},
                      adversaries={4: crash()}, seed=1, max_events=50)
        )
        assert result.timed_out

    def test_abandoned_runs_leak_no_unstarted_coroutine(self):
        # A run can stop between a create_task and that task's first
        # step: on an event budget, on the checker's step ceiling, on a
        # chooser's abort.  Whoever abandons it closes those coroutines.
        from repro.checking.choice import ScheduleChooser
        from repro.checking.harness import RunAbort, execute_run
        from repro.orchestration.matrix import ScenarioMatrix, run_scenario

        class AbortAtFirstChoice(ScheduleChooser):
            def choose(self, candidates):
                raise RunAbort("probe")

        [spec] = ScenarioMatrix(sizes=[(4, 1)], max_events=2).expand()
        model = RunConfig(n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = run_scenario(spec)
            assert outcome.timed_out and outcome.events_processed == 2
            assert execute_run(model, ScheduleChooser(()), max_steps=1).status == "steps"
            assert execute_run(model, AbortAtFirstChoice(())).status == "probe"
            gc.collect()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
