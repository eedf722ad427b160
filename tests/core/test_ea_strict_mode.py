"""The Figure 3 liveness counterexample (docs/claims.md, Deviations 1).

Read literally, Figure 3 arms the round timer only at line 5, *after* the
early return of line 4.  A correct process that returns at line 4 then
never broadcasts EA_RELAY when the round coordinator stays silent, and
the remaining correct processes can block forever at line 6 waiting for
``n - t`` relays.

Scenario (n = 4, t = 1): p1 is Byzantine and coordinates round 1.

* Every correct process ea-proposes; the CB layer is stubbed so that p2
  and p3 obtain aux value "v" while p4 obtains "w" (both are valid).
* The Byzantine sends EA_PROP2(v) to p2 only.
* p2's first three qualifying EA_PROP2 all carry "v" -> p2 returns at
  line 4.  p3 and p4 see {v, w} -> they take the timer path.
* The coordinator (Byzantine) never sends EA_COORD; p3/p4 time out and
  relay ⊥ — that is only 2 relays, below n - t = 3.

With ``strict_paper_timers=True`` (the literal pseudocode) p3/p4 block
forever; with the default (timer armed before line 4's return) p2 also
relays ⊥ on expiry and everyone terminates.
"""

from __future__ import annotations

from typing import Any

from repro.core.eventual_agreement import EventualAgreement
from repro.net import Asynchronous, ConstantDelay, Topology
from tests.helpers import build_system


class ScriptedCB:
    """CB test double: fixed aux value per process, fixed valid set.

    Used to pin down the exact interleaving the counterexample needs,
    independent of RB scheduling.
    """

    aux_by_pid: dict[int, Any] = {}
    valid: frozenset = frozenset()

    def __init__(self, process, rb, n, t, instance, selector=None) -> None:
        self.process = process

    async def cb_broadcast(self, value: Any) -> Any:
        return self.aux_by_pid[self.process.pid]

    def in_valid(self, value: Any) -> bool:
        return value in self.valid

    @property
    def cb_valid(self):
        return tuple(self.valid)


def build_scenario(strict: bool):
    topo = Topology(n=4, default=Asynchronous(ConstantDelay(1.0)))
    system = build_system(4, 1, topology=topo, byzantine=(1,))
    ScriptedCB.aux_by_pid = {2: "v", 3: "v", 4: "w"}
    ScriptedCB.valid = frozenset({"v", "w"})
    eas = {
        pid: EventualAgreement(
            proc,
            system.rbs[pid],
            4,
            1,
            m=2,
            cb_factory=ScriptedCB,
            strict_paper_timers=strict,
        )
        for pid, proc in system.processes.items()
    }
    # The Byzantine coordinator of round 1: one equivocating EA_PROP2 to
    # p2 only, then silence (no EA_COORD ever).
    system.byzantine[1].send_raw(2, "EA_PROP2", (1, "v"))
    tasks = {
        pid: system.processes[pid].create_task(eas[pid].propose(1, value))
        for pid, value in ((2, "v"), (3, "v"), (4, "w"))
    }
    return system, tasks


class TestStrictModeCounterexample:
    def test_literal_pseudocode_deadlocks(self):
        system, tasks = build_scenario(strict=True)
        system.settle()
        # p2 returned at line 4 ...
        assert tasks[2].done() and tasks[2].result() == "v"
        # ... and p3/p4 are stuck at line 6 forever (queue fully drained).
        assert not tasks[3].done()
        assert not tasks[4].done()
        assert system.sim.pending_events == 0

    def test_fixed_timer_placement_terminates(self):
        system, tasks = build_scenario(strict=False)
        system.settle()
        assert tasks[2].done() and tasks[2].result() == "v"
        assert tasks[3].done()
        assert tasks[4].done()

    def test_fix_preserves_line4_fast_path(self):
        # With the fix, a process that sees n-t identical values still
        # returns early with that value.
        system, tasks = build_scenario(strict=False)
        system.settle()
        assert tasks[2].result() == "v"

    def test_fix_returns_own_value_when_no_witness(self):
        # p3/p4 collected no F(r)-member relay carrying a value, so they
        # return their own proposals (line 9).
        system, tasks = build_scenario(strict=False)
        system.settle()
        assert tasks[3].result() == "v"
        assert tasks[4].result() == "w"
