"""Differential test: ``Simulator._drive`` — the one event loop behind
``run`` / ``run_until_complete``, with or without a chooser — against
the four loops it replaced (``reference_loop.py``).

The programs are the ones ``test_chooser_pop_differential.py`` generates
(every scheduling entry point incl. the pooled ones, cancellations,
aborting choosers, a chooser cleared mid-run), driven through each entry
point with and without a chooser, under time and event budgets, with a
future that may or may not resolve, and with a mass cancellation above
the heap-compaction floor.  Both simulators must agree event for event:
execution order, the clock and ``events_processed`` each event sees, the
candidate lists shown to ``choose()``, what the call returned or raised
(type *and* text), and — where it stopped and again after draining the
rest — ``now``, ``events_processed``, ``pending_events``, ``peek_time()``
and the handles taken from the pool (future deliveries aside).
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.loop import _MIN_HEAP_COMPACTION
from tests.sim.reference_loop import ReferenceLoopSimulator
from tests.sim.test_chooser_pop_differential import World, drive, spec_trees

ENTRIES = ("step", "run", "run_until_complete")

#: Timers and delayed deliveries sit 1..3 units apart, so these land
#: before, between, on and after event instants.
TIME_LIMITS = (None, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.0)


@given(
    program=st.lists(spec_trees, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    aborts=st.frozensets(st.integers(1, 12), max_size=3),
    clear_at=st.none() | st.integers(0, 25),
    entry=st.sampled_from(ENTRIES),
    chooser=st.booleans(),
    limits=st.tuples(
        st.sampled_from(TIME_LIMITS), st.none() | st.integers(0, 40)
    ),
    resolve_at=st.none() | st.integers(1, 40),
    doomed=st.tuples(
        st.sampled_from((0, 3, _MIN_HEAP_COMPACTION + 6)), st.integers(0, 10)
    ),
)
def test_drive_matches_the_replaced_loops(
    program, picks, aborts, clear_at, entry, chooser, limits, resolve_at, doomed
):
    args = (program, picks, aborts, clear_at, entry, chooser, limits,
            resolve_at, doomed)
    assert drive(Simulator, *args) == drive(ReferenceLoopSimulator, *args)


#: One internal event that fans out into two deliveries, an internal
#: event and a timer whose own child is a later timer: five events at
#: t=0, one at t=1, one at t=3.
PROGRAM = [("soon", 1, [], [
    ("cross", 1, [], []),
    ("soon", 1, [], []),
    ("cross", 1, [], []),
    ("timer", 1, [], [("timer", 2, [], [])]),
])]


@pytest.mark.parametrize("chooser", [False, True])
@pytest.mark.parametrize("entry, limits, resolve_at, outcome, executed", [
    ("run", (None, None), None, ("returned", None), 6),
    ("run", (2.0, None), None, ("returned", None), 5),
    ("run", (None, 3), None,
     ("DeadlineExceeded", "run() exceeded max_events=3 at t=0.0"), 3),
    # Both budgets trip on the same peeked event: time is checked first.
    ("run", (0.5, 4), None, ("returned", None), 4),
    ("run_until_complete", (None, None), 5, ("returned", "reached"), 5),
    ("run_until_complete", (None, None), None,
     ("DeadlockError",
      "event queue drained at t=3.0 while waiting for <Future 'goal' PENDING>"),
     6),
    ("run_until_complete", (2.0, None), None,
     ("DeadlineExceeded",
      "virtual deadline 2.0 reached while waiting for <Future 'goal' PENDING>"),
     5),
    ("run_until_complete", (None, 3), None,
     ("DeadlineExceeded",
      "event budget 3 exhausted while waiting for <Future 'goal' PENDING>"),
     3),
    ("run_until_complete", (0.5, 4), None,
     ("DeadlineExceeded",
      "virtual deadline 0.5 reached while waiting for <Future 'goal' PENDING>"),
     4),
])
def test_every_stop_reason(chooser, entry, limits, resolve_at, outcome, executed):
    args = (PROGRAM, (0,), frozenset(), None, entry, chooser, limits, resolve_at)
    got = drive(Simulator, *args)
    assert got == drive(ReferenceLoopSimulator, *args)
    _all_executed, _clock, _shown, trace, stopped, final = got
    assert trace[0] == outcome
    (now, processed, pending, peeked, _handles_taken), ran = stopped
    assert processed == len(ran) == executed
    # A tripped budget leaves the peeked event queued: it is still
    # pending, still what peek_time() reports, and runs afterwards.
    # (The t=3 timer is scheduled by the fifth event.)
    assert pending == (5 - executed if executed < 5 else 6 - executed)
    assert peeked == (0.0, 0.0, 0.0, 0.0, 1.0, 3.0, None)[executed]
    if entry == "run" and limits[0] is not None:
        assert now == limits[0]          # the clock advanced to `until`
    assert final[1:4] == (6, 0, None)


@pytest.mark.parametrize("entry", ["run", "run_until_complete"])
def test_mass_cancellation_is_compacted_inside_the_loop(entry, monkeypatch):
    # The last live event cancels 70 timers: the heap is all tombstones
    # and no schedule call is left to compact it first.
    compacted = []
    compact = Simulator._compact_heap
    monkeypatch.setattr(
        Simulator, "_compact_heap",
        lambda sim: (compacted.append(type(sim)), compact(sim)),
    )
    program = [("soon", 1, [], [("timer", 1, [], [])])]
    args = (program, (0,), frozenset(), None, entry, False, (None, None),
            None, (_MIN_HEAP_COMPACTION + 6, 2))
    got = drive(Simulator, *args)
    assert got == drive(ReferenceLoopSimulator, *args)
    assert got[0] == [0, _MIN_HEAP_COMPACTION + 7]
    assert compacted == [Simulator, ReferenceLoopSimulator]


def test_run_until_a_past_instant_with_an_event_pending_raises():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    sim.call_at(9.0, lambda: None)
    sim.run(until=6.0)
    with pytest.raises(SimulationError, match="clock cannot move backwards"):
        sim.run(until=2.0)
    assert sim.now == 6.0 and sim.pending_events == 1
    # With nothing pending there is no instant to refuse.
    sim.run()
    sim.run(until=2.0)
    assert sim.now == 9.0


@pytest.mark.parametrize("entry", ["run", "run_until_complete"])
def test_chooser_installed_mid_run_takes_effect_at_the_next_event(entry):
    world = World(Simulator(), picks=(1,))
    sim = world.sim
    leaf = ("cross", 1, [], [])
    first = world.spawn(("soon", 1, [], [leaf, leaf, ("soon", 1, [], [])]))
    world.at[1] = [lambda: sim.set_chooser(world)]
    if entry == "run":
        sim.run()
    else:
        task = sim.create_task(_wait_for(sim, 1.0))
        sim.run_until_complete(task)
    # Installed by the first event: the internal event overtakes both
    # deliveries and the chooser orders those (FIFO would run 1, 2, 3).
    assert world.shown == [[first + 1, first + 2], [first + 1]]
    assert world.executed == [first, first + 3, first + 2, first + 1]


async def _wait_for(sim, delay):
    await sim.sleep(delay)
