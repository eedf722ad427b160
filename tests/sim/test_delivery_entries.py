"""Delivery entries — ``(time, seq, message, deliver)`` on the heap, no
handle — against the handle-per-delivery path they replaced.

Everything here has a real ``Network`` delivery pending on a
positive-delay channel while something other than the main loop walks
the heap: ``step()``, ``peek_time()``, ``pending_events``,
``_compact_heap()``, a budget that stops short, a ``sim.step`` sink, the
checker's fingerprint.  The oracle is the same network on
``reference_delivery.HandleDeliverySimulator``: both must execute the
same ``(time, seq)`` sequence with the same uids on the same clock.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.fingerprint import state_tokens
from repro.errors import DeadlineExceeded
from repro.instrumentation import SIM_STEP
from repro.net import Network
from repro.net.timing import (
    Asynchronous,
    ConstantDelay,
    EventuallyTimely,
    Instant,
    PerTagTiming,
    ScriptedTiming,
    Timely,
    UniformDelay,
)
from repro.profiling import _event_label
from repro.sim import Future, RngRegistry, Simulator
from repro.sim.handles import EventHandle
from repro.sim.loop import _MIN_HEAP_COMPACTION
from tests.sim.reference_delivery import HandleDeliverySimulator

N = 4
STACKS = {"production": Simulator, "oracle": HandleDeliverySimulator}


class World:
    """Four processes flooding each other for three waves, round timers
    on top (every other one cancelled by the delivery after it), and a
    block of doomed timers big enough to trigger a compaction."""

    def __init__(self, stack, doomed=0):
        self.sim = sim = STACKS[stack]()
        self.network = network = Network(
            sim, N, rng=RngRegistry(11),
            timing={(1, 2): EventuallyTimely(tau=2.0, delta=0.5)},
        )
        self.log = []      # what each event saw
        self.timers = []
        self.goal = Future(name="goal")
        for pid in range(1, N + 1):
            network.register_process(pid, self.on_message)
        self.doomed = [
            sim.call_at(50.0 + index, self.on_timer, -1) for index in range(doomed)
        ]
        network.broadcast(1, "WAVE", 0)
        sim.call_soon(self.arm_timer)

    def seen(self, what):
        sim = self.sim
        self.log.append((sim.now, sim.events_processed, sim._next_seq, what))

    def on_message(self, message):
        self.seen(("msg", message.uid, message.sender, message.dest,
                   message.tag, message.payload, message.sent_at))
        wave = message.payload
        if wave < 2:
            self.network.broadcast(message.dest, "WAVE", wave + 1)
        if message.uid % 3 == 0:
            self.arm_timer()
        elif message.uid % 3 == 1 and self.timers:
            self.timers.pop().cancel()
        if message.uid == 5:
            self.network.send(2, 3, "ONE", 0)
        if message.uid == 9:
            for handle in self.doomed:
                handle.cancel()
        if message.uid == 70:
            self.goal.set_result("reached")

    def arm_timer(self):
        self.timers.append(
            self.sim.call_later(1.5, self.on_timer, len(self.log))
        )

    def on_timer(self, armed_at):
        self.seen(("timer", armed_at))

    def state(self):
        sim = self.sim
        return (sim.now, sim.events_processed, sim.pending_events,
                sim.peek_time(), self.network.messages_sent)


def drive_by_step(world):
    sim = world.sim
    trace = []
    while True:
        trace.append((sim.peek_time(), sim.pending_events))
        if not sim.step():
            return trace


def drive_by_run_until(world):
    sim = world.sim
    trace = []
    for until in (0.5, 0.5, 1.5, 2.25, 4.0, 9.0, None):
        sim.run(until=until)
        trace.append(world.state())
    return trace


def drive_by_event_budget(world):
    sim = world.sim
    trace = []
    while True:
        try:
            trace.append(sim.run_until_complete(world.goal, max_events=7))
            return trace
        except DeadlineExceeded as error:
            trace.append((str(error), world.state()))


def drive_with_a_compaction(world):
    sim = world.sim
    trace = []
    for _ in range(25):
        sim.step()
    if type(sim) is Simulator:
        # Tombstones and delivery entries side by side in the heap.
        assert any(len(entry) == 4 for entry in sim._heap)
    trace.append(world.state())
    sim._compact_heap()
    trace.append((world.state(), sim._heap_cancelled))
    sim.run()
    return trace


DRIVERS = {
    "step": drive_by_step,
    "run-until": drive_by_run_until,
    "event-budget": drive_by_event_budget,
    "compaction": drive_with_a_compaction,
}


@pytest.mark.parametrize("doomed", [0, _MIN_HEAP_COMPACTION + 8])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_way_of_driving_the_heap_matches_the_oracle(driver, doomed):
    runs = {}
    for stack in STACKS:
        world = World(stack, doomed)
        trace = DRIVERS[driver](world)
        world.sim.run()
        runs[stack] = (world.log, trace, world.state())
    assert runs["production"] == runs["oracle"]
    log = runs["production"][0]
    assert sum(1 for entry in log if entry[3][0] == "msg") > 40
    assert sum(1 for entry in log if entry[3][0] == "timer") > 3
    assert runs["production"][2][2:4] == (0, None)


def test_the_loop_compacts_around_pending_deliveries(monkeypatch):
    compacted = []
    compact = Simulator._compact_heap
    monkeypatch.setattr(
        Simulator, "_compact_heap",
        lambda sim: (compacted.append(len(sim._heap)), compact(sim)),
    )
    logs = {}
    for stack in STACKS:
        world = World(stack, doomed=_MIN_HEAP_COMPACTION + 8)
        world.sim.run()
        logs[stack] = world.log
    assert logs["production"] == logs["oracle"]
    assert len(compacted) == 2 and compacted[0] == compacted[1]


def test_step_runs_a_pending_delivery():
    # The sizing prototype raised AttributeError ('Message' object has
    # no attribute '_loop') here, with the whole suite green.
    sim = Simulator()
    network = Network(sim, 2, default_timing=Asynchronous(ConstantDelay(2.0)))
    got = []
    network.register_process(1, got.append)
    network.register_process(2, got.append)
    timer = sim.call_at(1.0, got.append, "timer")
    message = network.send(1, 2, "T", None)
    assert sim._heap[1] == (2.0, 1, message, network._deliver_cb)
    assert sim.peek_time() == 1.0 and sim.pending_events == 2
    timer.cancel()
    assert sim.peek_time() == 2.0 and sim.pending_events == 1
    assert "pending=1" in repr(sim)
    assert sim.step() and got == [message] and sim.now == 2.0
    assert not sim.step()
    assert sim.events_processed == 1


def test_future_deliveries_take_no_handle_and_same_instant_ones_a_pooled_one():
    sim = Simulator()
    ran = []
    sim.schedule_delivery(3.0, ran.append, "later")
    assert (sim.pools.handles_created, sim.pools.handles_reused) == (0, 0)
    sim.schedule_delivery(sim.now, ran.append, "now")
    assert sim.pools.handles_created == 1
    handle = sim._ready[0]
    assert handle._pooled and handle._args == ["now"]
    sim.run()
    assert ran == ["now", "later"] and sim.pools.handles == [handle]


@pytest.mark.parametrize("entry", ["run", "step"])
def test_a_sink_attached_mid_run_sees_delivery_handles_labelled_as_before(entry):
    views = {}
    for stack in STACKS:
        world = World(stack)
        sim = world.sim
        deliver_cb = world.network._deliver_cb
        seen = []

        def sink(handle):
            assert type(handle) is EventHandle
            message = handle._args[0] if handle._args else None
            uid = message.uid if handle._callback is deliver_cb else None
            seen.append((handle.time, handle.seq, _event_label(handle), uid))

        for _ in range(10):
            sim.step()
        sim.bus.probe(SIM_STEP).attach(sink)
        if entry == "run":
            sim.run(until=6.0)
        else:
            while sim.peek_time() is not None and sim.peek_time() <= 6.0:
                sim.step()
        sim.bus.probe(SIM_STEP).detach(sink)
        sim.run()
        views[stack] = (seen, world.log)
    assert views["production"] == views["oracle"]
    labels = {label for _time, _seq, label, _uid in views["production"][0]}
    assert {"tag:WAVE", "World.on_timer"} <= labels
    uids = [uid for *_rest, uid in views["production"][0] if uid is not None]
    assert len(uids) > 10 and len(set(uids)) == len(uids)


def test_the_fingerprint_walks_past_delivery_entries():
    sim = Simulator()
    network = Network(sim, 2, default_timing=Asynchronous(ConstantDelay(2.0)))
    network.register_process(1, lambda m: None)
    network.register_process(2, lambda m: None)
    frame = SimpleNamespace(
        sim=sim, network=network, consensi={}, rb_engines={}, decision_times={}
    )
    sim.call_at(1.0, print, "x")
    before = state_tokens(frame, [])
    network.send(1, 2, "T", None)          # the network's own: not a timer
    assert state_tokens(frame, []) == before
    sim.schedule_delivery(4.0, print, "y")  # somebody else's: listed
    assert state_tokens(frame, []) == before + ["timer:4.0:print('y')"]


# -- generated traffic over every timing class ---------------------------

PIDS = 5
TAGS = ("RB_ECHO", "EA_COORD", "X")


class Doubled(Asynchronous):
    """Overrides the documented extension point only."""

    def delivery_time(self, send_time, rng):
        return send_time + 2.0 * self.dist.sample(send_time, rng)


def topology():
    """Fresh timing objects for one network: sampled, bounded, per-tag,
    scripted, constant and instant channels side by side, so delivery
    entries and same-instant pooled handles interleave."""
    return {
        (1, 2): EventuallyTimely(tau=3.0, delta=1.0),
        (2, 1): Timely(delta=0.5),
        (1, 3): PerTagTiming(
            Asynchronous(), {"EA_COORD": Asynchronous(ConstantDelay(9.0))}
        ),
        (3, 1): ScriptedTiming(lambda s, rng: s + 1.0 + rng.random()),
        (2, 3): Doubled(),
        (3, 2): Asynchronous(UniformDelay(0.5, 2.0)),
        (4, 1): Instant(),
        (1, 4): EventuallyTimely(tau=0.0, delta=2.0, pre=ConstantDelay(5.0)),
    }


def run_program(sim_cls, program, fifo, recycle, seed):
    sim = sim_cls()
    network = Network(
        sim, PIDS, timing=topology(), rng=RngRegistry(seed), fifo=fifo,
        recycle=recycle,
    )
    log = []
    timers = []

    def on_message(message):
        log.append((
            sim.now, sim.events_processed, sim._next_seq, message.uid,
            message.sender, message.dest, message.tag, message.payload,
            message.sent_at,
        ))

    def on_timer(index):
        log.append((sim.now, sim.events_processed, sim._next_seq, "timer", index))

    for pid in range(1, PIDS + 1):
        network.register_process(pid, on_message)

    def act(kind, src, dst, tag, delay):
        if kind == "send":
            network.send(src, dst, TAGS[tag], (src, dst))
        elif kind == "broadcast":
            network.broadcast(src, TAGS[tag], src)
        elif kind == "timer":
            timers.append(sim.call_later(delay, on_timer, len(timers)))
        elif timers:
            timers[dst % len(timers)].cancel()

    for when, action in program:
        sim.call_at(float(when), act, *action)
    sim.run()
    channels = {
        pair: (c._last_delivery, c.rng.getstate())
        for pair, c in network._channels.items()
    }
    pools = network.pools
    return (
        log, sim.now, sim.events_processed, network.messages_sent,
        network.sent_by_tag, channels, pools.messages_created,
        pools.messages_reused,
    )


actions = st.tuples(
    st.sampled_from(("send", "broadcast", "timer", "cancel")),
    st.integers(1, PIDS), st.integers(1, PIDS), st.integers(0, len(TAGS) - 1),
    st.integers(1, 4),
)


@settings(deadline=None)
@given(
    program=st.lists(st.tuples(st.integers(0, 6), actions), max_size=25),
    fifo=st.booleans(),
    recycle=st.booleans(),
    seed=st.integers(0, 3),
)
def test_generated_traffic_matches_the_oracle(program, fifo, recycle, seed):
    got = run_program(Simulator, program, fifo, recycle, seed)
    want = run_program(HandleDeliverySimulator, program, fifo, recycle, seed)
    assert got == want
