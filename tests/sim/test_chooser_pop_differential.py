"""Differential test: the classify-once chooser-mode pop against the
ready-deque scan it replaced (``reference_chooser_pop.py``).

Generated programs interleave every way an event reaches the ready tier
or the heap — ``call_soon``, same-instant ``call_at``, ``call_soon_pooled``,
timers, pooled deliveries (cross-process, self, delayed), caller-owned
(cancellable) deliveries — with cancellations, a scripted chooser that
sometimes aborts, and optionally a mid-run ``set_chooser(None)``.  Both
simulators must execute the same events in the same order, show the
chooser the same candidate lists, and report the same ``peek_time`` /
``pending_events`` before every step.

``drive()`` is also the harness of ``test_loop_differential.py``, which
runs the same programs through every entry point of the event loop
(``step`` / ``run`` / ``run_until_complete``, budgets included) against
the loops ``Simulator._drive`` replaced.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Future, Simulator
from tests.sim.reference_chooser_pop import ReferenceChooserSimulator

#: How a generated event is scheduled.  ``cross*`` are choice events
#: (sender != dest); everything else is internal.
KINDS = (
    "soon", "same_instant", "soon_pooled", "timer",
    "cross", "cross_owned", "cross_later", "self",
)


class Abort(Exception):
    """Raised by the scripted chooser instead of picking."""


class Message:
    __slots__ = ("ident", "sender", "dest", "spec")

    def __init__(self, ident, sender, dest, spec):
        self.ident = ident
        self.sender = sender
        self.dest = dest
        self.spec = spec


class World:
    """One simulator running a generated program; also its chooser."""

    def __init__(self, sim, picks=(0,), aborts=frozenset()):
        self.sim = sim
        self.picks = picks
        self.aborts = aborts
        self.choose_calls = 0
        self.classified = 0
        self.spawned = 0
        self.owned = []      # caller-owned handles, in spawn order
        self.executed = []   # event idents, in execution order
        self.clock = []      # (now, events_processed) seen by each event
        self.shown = []      # candidate idents of every choose() call
        self.at = {}         # executed-count -> actions run by that event
        self._deliver_cb = self.deliver

    # -- chooser protocol ----------------------------------------------
    def is_choice(self, handle):
        self.classified += 1
        if handle._callback is not self._deliver_cb:
            return False
        message = handle._args[0]
        return message.sender != message.dest

    def choose(self, candidates):
        self.choose_calls += 1
        self.shown.append([h._args[0].ident for h in candidates])
        if self.choose_calls in self.aborts:
            raise Abort
        return self.picks[self.choose_calls % len(self.picks)] % len(candidates)

    # -- the program ---------------------------------------------------
    def spawn(self, spec):
        kind, delay, _cancels, _children = spec
        ident = self.spawned
        self.spawned += 1
        sim = self.sim
        if kind == "soon":
            self.owned.append(sim.call_soon(self.fire, ident, spec))
        elif kind == "same_instant":
            self.owned.append(sim.call_at(sim.now, self.fire, ident, spec))
        elif kind == "timer":
            self.owned.append(sim.call_later(delay, self.fire, ident, spec))
        elif kind == "soon_pooled":
            sim.call_soon_pooled(self.fire, (ident, spec))
        else:
            dest = 1 if kind == "self" else 2
            message = Message(ident, 1, dest, spec)
            if kind == "cross_owned":
                self.owned.append(sim.call_soon(self._deliver_cb, message))
            elif kind == "cross_later":
                sim.schedule_delivery(sim.now + delay, self._deliver_cb, message)
            else:
                sim.schedule_delivery(sim.now, self._deliver_cb, message)
        return ident

    def fire(self, ident, spec):
        self.executed.append(ident)
        self.clock.append((self.sim.now, self.sim.events_processed))
        for action in self.at.pop(len(self.executed), ()):
            action()
        _kind, _delay, cancels, children = spec
        for target in cancels:
            if self.owned:
                self.owned[target % len(self.owned)].cancel()
        for child in children:
            self.spawn(child)

    def deliver(self, message):
        self.fire(message.ident, message.spec)


def drive(sim_cls, program, picks, aborts, clear_at, entry="step",
          chooser=True, limits=(None, None), resolve_at=None, doomed=(0, 0)):
    """Run ``program`` on a ``sim_cls()`` through ``entry`` and return
    everything observable about the run.

    ``limits`` is ``(until | max_time, max_events)``.  ``resolve_at``
    completes the awaited future from inside that event (``None``: never,
    so ``run_until_complete`` stops on the queue or a budget).
    ``doomed = (count, at)`` adds ``count`` timers that event ``at``
    cancels in one go (0: before the run) — above the heap-compaction
    floor when ``count`` is.  With ``entry != "step"`` the chooser is
    cleared from *inside* event ``clear_at``, mid-run.
    """
    world = World(sim_cls(), picks, aborts)
    sim = world.sim
    if chooser:
        sim.set_chooser(world)
    for spec in program:
        world.spawn(spec)
    count, cancel_at = doomed
    for index in range(count):
        world.spawn(("timer", 4 + index % 3, [], []))
    goal = Future(name="goal")
    actions = [(cancel_at, handle.cancel)
               for handle in world.owned[len(world.owned) - count:]]
    if resolve_at is not None:
        actions.append((resolve_at, lambda: goal.set_result("reached")))
    if entry != "step" and chooser and clear_at is not None:
        actions.append((clear_at, lambda: sim.set_chooser(None)))
    for when, action in actions:
        world.at.setdefault(when, []).append(action)
    for action in world.at.pop(0, ()):
        action()

    trace = []

    def state():
        # Pool accounting is compared as handles taken for anything but
        # a future delivery: production takes none for those, the
        # handle-per-delivery references one each.
        pools = sim.pools
        taken = pools.handles_created + pools.handles_reused
        return (sim.now, sim.events_processed, sim.pending_events,
                sim.peek_time(),
                taken - getattr(sim, "future_delivery_handles", 0))

    def call(run):
        """``run()`` until it returns or raises something other than a
        chooser abort (every abort leaves the event queued, and a
        scripted chooser aborts finitely often)."""
        while True:
            try:
                trace.append(("returned", run()))
                return
            except Abort:
                trace.append("abort")
            except SimulationError as error:
                trace.append((type(error).__name__, str(error)))
                return

    if entry == "step":
        steps = 0
        while True:
            if steps == clear_at and chooser:
                sim.set_chooser(None)
                trace.append(("cleared", sim.peek_time(), sim.pending_events))
                sim.run()
                break
            trace.append((sim.peek_time(), sim.pending_events))
            try:
                if not sim.step():
                    break
            except Abort:
                trace.append("abort")
            steps += 1
    elif entry == "run":
        call(lambda: sim.run(*limits))
    else:
        call(lambda: sim.run_until_complete(goal, *limits))
    stopped = (state(), list(world.executed))
    # Whatever a budget left queued is still there, in order.
    call(sim.run)
    return (world.executed, world.clock, world.shown, trace, stopped, state())


def _specs(children):
    return st.tuples(
        st.sampled_from(KINDS),
        st.integers(1, 3),
        st.lists(st.integers(0, 40), max_size=2),
        children,
    )


spec_trees = st.recursive(
    _specs(st.just([])),
    lambda inner: _specs(st.lists(inner, max_size=4)),
    max_leaves=30,
)


@given(
    program=st.lists(spec_trees, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    aborts=st.frozensets(st.integers(1, 12), max_size=3),
    clear_at=st.none() | st.integers(0, 25),
)
def test_pop_matches_the_scan(program, picks, aborts, clear_at):
    got = drive(Simulator, program, picks, aborts, clear_at)
    want = drive(ReferenceChooserSimulator, program, picks, aborts, clear_at)
    assert got == want


def _world(*kinds):
    world = World(Simulator())
    world.sim.set_chooser(world)
    idents = [world.spawn((kind, 1, [], [])) for kind in kinds]
    return world, idents


def test_set_aside_choices_stay_pending():
    # The internal event runs first; the delivery scanned on the way to
    # it has left the ready deque but is still a queued event.
    world, (first, internal, second) = _world("cross", "soon", "cross")
    sim = world.sim
    assert sim.pending_events == 3
    assert sim.step()
    assert world.executed == [internal]
    assert sim.pending_events == 2
    assert sim.peek_time() == sim.now == 0.0
    assert "pending=2" in repr(sim)
    assert sim.step() and sim.step()
    assert world.executed == [internal, first, second]
    assert sim.peek_time() is None and sim.pending_events == 0


def test_clearing_the_chooser_resumes_fifo_order():
    world, (first, internal, second, later) = _world(
        "cross", "soon", "cross", "soon"
    )
    sim = world.sim
    sim.step()                       # runs `internal`, sets `first` aside
    sim.set_chooser(None)
    assert sim.pending_events == 3
    sim.run()
    assert world.executed == [internal, first, second, later]
    assert world.shown == []         # no chooser: nothing was ever offered


def test_replacing_the_chooser_reclassifies_pending_choices():
    world, (first, internal, second) = _world("cross", "soon", "cross")
    sim = world.sim
    sim.step()
    successor = World(Simulator(), picks=(1,))
    successor._deliver_cb = world._deliver_cb
    sim.set_chooser(successor)
    sim.step()
    assert successor.shown == [[first, second]]
    assert world.executed == [internal, second]


def test_aborting_chooser_leaves_everything_queued():
    world, idents = _world("cross", "cross", "cross")
    world.aborts = frozenset({1})
    sim = world.sim
    with pytest.raises(Abort):
        sim.step()
    assert sim.pending_events == 3 and sim.peek_time() == 0.0
    assert world.executed == []
    sim.step()
    assert world.shown == [idents, idents]


def test_choice_cancelled_after_classification_is_never_offered():
    world, (owned, internal, other) = _world("cross_owned", "soon", "cross")
    sim = world.sim
    sim.step()                       # `owned` is now set aside
    world.owned[0].cancel()
    assert sim.pending_events == 1
    sim.step()
    assert world.shown == [[other]]
    assert world.executed == [internal, other]
    assert not sim.step()


def test_timers_wait_for_ready_quiescence():
    # A heap entry due at the current instant still runs after every
    # ready event, choices included.
    world = World(Simulator())
    sim = world.sim
    sim.set_chooser(world)
    leaf = ("cross", 1, [], [])
    early = world.spawn(("timer", 1, [], [leaf, ("soon", 1, [], [])]))
    late = world.spawn(("timer", 1, [], []))
    sim.run()
    assert world.executed == [early, early + 3, early + 2, late]


def test_every_handle_is_classified_exactly_once():
    # The work count the rewrite is for: the scan called is_choice on
    # every ready handle at every pop (quadratic in a delivery burst).
    burst = 200
    world, idents = _world(*["cross"] * burst)
    world.sim.run()
    assert sorted(world.executed) == idents
    assert world.choose_calls == burst
    assert world.classified == burst

    reference = World(ReferenceChooserSimulator())
    reference.sim.set_chooser(reference)
    for _ in range(burst):
        reference.spawn(("cross", 1, [], []))
    reference.sim.run()
    assert reference.executed == world.executed
    assert reference.classified == burst * (burst + 1) // 2
