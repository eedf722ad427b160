"""Allocation-lean kernel: freelist behaviour and the allocs/event pin.

The tentpole claim of the pooled kernel is that a steady-state run
constructs almost no handle/message objects — retired ones are
re-stamped instead.  The pool counters are *exact* (every construction
bumps ``*_created``, every freelist hit bumps ``*_reused``), which
makes them a gc-stable allocation metric: unlike
``sys.getallocatedblocks()`` deltas they cannot be perturbed by
refcount timing or collector runs.  The regression test at the bottom
pins allocations-per-event on the flood microbench shape with a
deliberately generous ceiling — it exists to catch the pooling being
accidentally disconnected (ratios jumping toward 2 objects/event), not
to flake over a few extra allocations.
"""

import pytest

from repro.instrumentation import NET_DELIVER
from repro.net.network import Network
from repro.net.timing import Asynchronous, ConstantDelay
from repro.sim.loop import Simulator
from repro.sim.pool import MAX_POOL, ObjectPools
from repro.sim.random import RngRegistry


class TestObjectPools:
    def test_intern_tag_returns_identical_object(self):
        pools = ObjectPools()
        a = pools.intern_tag("RB_" + "ECHO")  # defeat compile-time intern
        b = pools.intern_tag("RB_" + "ECHO")
        assert a is b

    def test_pid_range_is_cached(self):
        pools = ObjectPools()
        assert pools.pid_range(4) is pools.pid_range(4)
        assert pools.pid_range(4) == (1, 2, 3, 4)

    def test_counters_roundtrip(self):
        pools = ObjectPools()
        pools.handles_created += 3
        pools.messages_reused += 2
        counters = pools.counters()
        assert counters["pool_handles_created"] == 3
        assert counters["pool_messages_reused"] == 2
        assert pools.created_total() == 3
        assert pools.reused_total() == 2

    def test_clear_resets_everything(self):
        pools = ObjectPools()
        pools.intern_tag("X" + "Y")
        pools.handles.append(object())
        pools.messages_created = 7
        pools.clear()
        assert not pools.handles and not pools.messages and not pools.tags
        assert pools.created_total() == 0


class TestHandleRecycling:
    def test_pooled_handles_are_reused_across_events(self):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.call_soon_pooled(fired.append, (i,))
        sim.run()
        assert fired == list(range(50))
        # The first event's handle is retired before the second is
        # scheduled... but scheduling happened up front here, so all 50
        # were constructed; run a second wave against the warm pool.
        created_before = sim.pools.handles_created
        for i in range(50):
            sim.call_soon_pooled(fired.append, (i,))
        sim.run()
        assert sim.pools.handles_created == created_before
        assert sim.pools.handles_reused >= 50

    def test_public_handles_are_never_pooled(self):
        sim = Simulator()
        handle = sim.call_soon(lambda: None)
        future = sim.call_at(5.0, lambda: None)
        assert not handle._pooled and not future._pooled
        sim.run()
        assert handle not in sim.pools.handles
        assert future not in sim.pools.handles

    def test_pool_is_bounded(self):
        from repro.sim.handles import EventHandle

        sim = Simulator()
        pool = sim.pools.handles
        pool.extend(
            EventHandle(0.0, i, lambda: None) for i in range(MAX_POOL)
        )
        retiring = EventHandle(0.0, MAX_POOL, lambda: None)
        retiring._pooled = True
        sim._release_handle(retiring)
        assert len(pool) == MAX_POOL
        assert retiring not in pool


class TestMessageRecycling:
    @staticmethod
    def _flood(recycle: bool, n_messages: int = 400) -> Simulator:
        sim = Simulator()
        network = Network(
            sim, 4,
            default_timing=Asynchronous(ConstantDelay(1.0)),
            rng=RngRegistry(0),
            recycle=recycle,
        )
        budget = [n_messages]

        def on_message(message) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                network.send(message.dest, 1 + message.uid % 4, "PING", None)

        for pid in range(1, 5):
            network.register_process(pid, on_message)
        budget[0] -= 4
        for pid in range(1, 5):
            network.send(pid, 1 + pid % 4, "PING", None)
        sim.run()
        return sim

    def test_recycle_reuses_messages(self):
        sim = self._flood(recycle=True)
        pools = sim.pools
        assert pools.messages_reused > pools.messages_created
        # Steady state: in-flight window is tiny, so only a handful of
        # Message objects ever exist.
        assert pools.messages_created < 50

    def test_no_recycle_means_no_reuse(self):
        sim = self._flood(recycle=False)
        assert sim.pools.messages_reused == 0

    def test_observed_messages_are_never_recycled(self):
        # Copy-on-emit contract: with a deliver sink attached, every
        # message stays owned by whoever observed it.
        sim = Simulator()
        network = Network(
            sim, 4,
            default_timing=Asynchronous(ConstantDelay(1.0)),
            rng=RngRegistry(0),
            recycle=True,
        )
        seen = []
        network.bus.attach(NET_DELIVER, lambda message, now: seen.append(message))
        for pid in range(1, 5):
            network.register_process(pid, lambda message: None)
        for pid in range(1, 5):
            network.send(pid, 1 + pid % 4, "HELLO", pid * 10)
        sim.run()
        assert len(network._msg_pool) == 0
        payloads = sorted(m.payload for m in seen)
        assert payloads == [10, 20, 30, 40]


class TestAllocationRegressionGate:
    def test_flood_allocs_per_event_stays_low(self):
        """Pin allocations-per-event on the flood microbench shape.

        Ceiling is generous (0.25 constructions/event vs the ~0.003
        measured) so gc scheduling or MAX_POOL tuning can't flake it;
        an unpooled kernel sits near 2.0 and fails loudly.
        """
        sim = TestMessageRecycling._flood(recycle=True, n_messages=2000)
        pools = sim.pools
        events = sim.events_processed
        assert events >= 2000
        allocs_per_event = pools.created_total() / events
        assert allocs_per_event < 0.25, (
            f"kernel allocation regression: {allocs_per_event:.4f} "
            f"constructions/event (created={pools.created_total()}, "
            f"events={events}) — pooling disconnected?"
        )
        # And reuse must dominate: the freelists are actually working.
        assert pools.reused_total() > pools.created_total() * 10
