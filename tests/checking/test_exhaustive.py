"""Exhaustive exploration of the n=2 FIFO model: the checker's core
contract.

The FIFO small model is the one whose schedule space the explorer can
*finish*: with in-order channels only per-channel head deliveries
branch, so the choice tree is finite and small (~100 executions).  These
tests pin the acceptance claim — ``repro check`` on a correct small
model terminates having exhausted the space — plus the budget knobs,
the reduction toggles and replay determinism.
"""

import pytest

from repro.checking import (
    Explorer,
    ScheduleChooser,
    ScheduleDivergence,
    execute_run,
)
from repro.checking.sharding import ProbeChooser
from repro.orchestration.config import RunConfig


def small_model(**overrides) -> RunConfig:
    kwargs = dict(
        n=2, t=0, proposals={1: "a", 2: "a"}, max_rounds=1, fifo=True
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="module")
def exhaustive():
    return Explorer(small_model(), keep_states=True).run()


def test_exhausts_the_schedule_space(exhaustive):
    assert exhaustive.verdict == "ok"
    assert exhaustive.exhausted
    assert exhaustive.counterexample is None
    stats = exhaustive.stats
    assert stats.violations == 0
    assert stats.completed >= 1
    assert stats.executions > stats.completed  # the DFS really branched
    assert stats.states > 0
    assert stats.choice_points > 0
    assert stats.max_depth > 0
    assert len(exhaustive.visited) == stats.states


def test_reductions_fire_on_this_model(exhaustive):
    # Both classic reductions must actually engage, or the model is too
    # small to certify them.
    assert exhaustive.stats.deduped > 0
    assert exhaustive.stats.pruned > 0


def test_divergent_proposals_also_exhaust():
    result = Explorer(small_model(proposals={1: "a", 2: "b"})).run()
    assert result.exhausted
    assert result.verdict == "ok"


def test_execution_budget_trips():
    result = Explorer(small_model(), max_executions=3).run()
    assert not result.exhausted
    assert result.stats.executions == 3


def test_state_budget_trips():
    result = Explorer(small_model(), max_states=5).run()
    assert not result.exhausted
    assert result.stats.states >= 5


def test_depth_budget_trips():
    result = Explorer(small_model(), max_depth=1).run()
    assert not result.exhausted
    assert result.stats.max_depth <= 1


def test_no_prune_explores_superset_of_states(exhaustive):
    plain = Explorer(small_model(), prune=False, keep_states=True).run()
    assert plain.exhausted
    assert plain.verdict == "ok"
    # Sleep sets only ever *skip* redundant interleavings; turning them
    # off re-explores every state the pruned run saw (and then some
    # executions, since nothing is slept).
    assert exhaustive.visited <= plain.visited
    assert plain.stats.executions > exhaustive.stats.executions


def test_exploration_is_deterministic():
    def journal_of():
        journal = []
        Explorer(
            small_model(),
            on_execution=lambda prefix, outcome: journal.append(
                (prefix, outcome.status, outcome.trail)
            ),
        ).run()
        return journal

    first = journal_of()
    second = journal_of()
    assert first == second
    assert len(first) > 1


def test_schedule_replay_is_deterministic(exhaustive):
    # Any branching prefix replays to the same trail, steps and
    # decisions, twice in a row — the bit-identical replay contract the
    # counterexample workflow stands on.  (Indices name *enabled*
    # deliveries: at the second branching point of this FIFO model the
    # channel heads are candidates 0 and 2.)
    for schedule in [(), (1,), (1, 2)]:
        outcomes = [
            execute_run(small_model(), ScheduleChooser(schedule))
            for _ in range(2)
        ]
        assert outcomes[0].trail == outcomes[1].trail
        assert outcomes[0].steps == outcomes[1].steps
        assert outcomes[0].decisions == outcomes[1].decisions
        assert outcomes[0].status == outcomes[1].status == "complete"
        assert outcomes[0].decisions == {1: "a", 2: "a"}


def test_out_of_range_schedule_index_diverges():
    outcome = execute_run(small_model(), ScheduleChooser((99,)))
    assert outcome.status == "divergence"


def test_fifo_replay_rejects_an_index_behind_its_channel_head():
    # First branching point of this model: four pending deliveries, two
    # per channel, so only candidates 0 and 1 are enabled.  Index 2 is in
    # range but names a message FIFO order does not allow yet — replaying
    # it used to run an execution the model does not contain and report
    # it clean.
    model = small_model(proposals={1: "a", 2: "b"})
    assert execute_run(model, ScheduleChooser((2,))).status == "divergence"
    head = execute_run(model, ScheduleChooser((1,)))
    assert head.status == "complete" and head.trail[0] == 1


def test_unordered_replay_accepts_every_candidate():
    model = small_model(proposals={1: "a", 2: "b"}, fifo=False)
    outcome = execute_run(model, ScheduleChooser((2,)))
    assert outcome.status == "complete" and outcome.trail[0] == 2


def test_caller_supplied_prefixes_are_held_to_the_same_rule():
    model = small_model(proposals={1: "a", 2: "b"})
    with pytest.raises(ScheduleDivergence):
        Explorer(model, roots=((2,),)).run()
    probe = execute_run(model, ProbeChooser((2,), set()))
    assert probe.status == "divergence"
    assert execute_run(model, ProbeChooser((1,), set())).status == "probe"


def test_forced_moves_consume_no_schedule_index():
    # The trail records branching choices only: replaying the full
    # recorded trail must reproduce it exactly (schedules are closed
    # under their own replay), and it is much shorter than the number
    # of delivery events in the run.
    base = execute_run(small_model(), ScheduleChooser(()))
    replay = execute_run(small_model(), ScheduleChooser(tuple(base.trail)))
    assert tuple(replay.trail) == tuple(base.trail)
    assert len(base.trail) < base.steps
