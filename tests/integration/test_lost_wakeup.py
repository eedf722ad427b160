"""Scenario-level regression for the lost wake-up in ``ConditionVar.recheck``.

In this scenario (``repro sweep --grid 4:1 --topologies minimal
--adversaries crash --value-counts 1 --seeds 1 --seed 400``) p2 used to
stall in round 1: a late-built adopt-commit object replayed RB
deliveries inside a wake-up, the nested ``notify()`` rebound the waiter
list, and p2's next ``wait_until`` was dropped.  A *correct* process sat
out round 2 until the DECIDE relay rescued it (rounds ``{1: 2, 2: 1,
3: 2}``, 500 messages, finished at t = 97.1).
"""

from repro.orchestration import ScenarioMatrix
from repro.orchestration.matrix import run_scenario


def test_every_correct_process_runs_every_round():
    (spec,) = ScenarioMatrix(
        sizes=[(4, 1)], topologies=["minimal"], adversaries=["crash"],
        value_counts=[1], value_pool=["a", "b"], seeds=range(1), base_seed=400,
    ).expand()
    outcome = run_scenario(spec)
    assert outcome.decided and outcome.invariants_ok
    assert outcome.rounds == {1: 2, 2: 2, 3: 2}
    assert outcome.messages_sent == 536
    assert round(outcome.finished_at, 1) == 85.8
