"""Unit tests for the instrumentation bus (probes, sinks, zero-cost idle)."""

import pytest

from repro.analysis.metrics import MessageCounter
from repro.instrumentation import (
    NET_DELIVER,
    NET_SEND,
    SIM_STEP,
    InstrumentationBus,
    Probe,
)
from repro.net import Network
from repro.sim import RngRegistry, Simulator


class TestProbe:
    def test_idle_probe_has_no_emit(self):
        probe = Probe("x")
        assert probe.emit is None
        assert not probe

    def test_single_sink_is_the_emit_path(self):
        probe = Probe("x")
        seen = []

        def sink(value):
            seen.append(value)

        probe.attach(sink)
        # One sink: no dispatch wrapper at all.
        assert probe.emit is sink
        probe.emit("a")
        assert seen == ["a"]

    def test_fan_out_preserves_attach_order(self):
        probe = Probe("x")
        order = []
        probe.attach(lambda v: order.append(("first", v)))
        probe.attach(lambda v: order.append(("second", v)))
        probe.emit(1)
        assert order == [("first", 1), ("second", 1)]

    def test_detach_returns_to_zero_cost(self):
        probe = Probe("x")
        sink = probe.attach(lambda v: None)
        assert probe.emit is not None
        assert probe.detach(sink) is True
        assert probe.emit is None
        assert probe.detach(sink) is False

    def test_clear(self):
        probe = Probe("x")
        probe.attach(lambda v: None)
        probe.attach(lambda v: None)
        probe.clear()
        assert probe.emit is None and not probe.sinks


class TestBus:
    def test_probe_is_get_or_create(self):
        bus = InstrumentationBus()
        assert bus.probe("a") is bus.probe("a")
        assert "a" in bus and "b" not in bus

    def test_attach_detach_by_name(self):
        bus = InstrumentationBus()
        seen = []
        bus.attach("evt", seen.append)
        bus.probe("evt").emit(3)
        assert seen == [3]
        assert bus.detach("evt", seen.append) is True
        assert bus.probe("evt").emit is None
        assert bus.detach("missing", seen.append) is False

    def test_clear_detaches_everywhere_but_keeps_probes(self):
        bus = InstrumentationBus()
        probe = bus.probe("evt")
        bus.attach("evt", lambda v: None)
        bus.clear()
        assert bus.probe("evt") is probe
        assert probe.emit is None


class TestKernelWiring:
    def build(self, n=3):
        sim = Simulator()
        network = Network(sim, n, rng=RngRegistry(0))
        for pid in range(1, n + 1):
            network.register_process(pid, lambda m: None)
        return sim, network

    def test_network_shares_the_simulator_bus(self):
        sim, network = self.build()
        assert network.bus is sim.bus
        assert NET_SEND in sim.bus and NET_DELIVER in sim.bus

    def test_idle_probes_on_the_message_path(self):
        sim, network = self.build()
        assert network.bus.probe(NET_SEND).emit is None
        assert network.bus.probe(NET_DELIVER).emit is None
        network.send(1, 2, "T", None)
        sim.run()  # no sink, no error, message still delivered
        assert network.messages_sent == 1

    def test_send_and_deliver_sinks_fire(self):
        sim, network = self.build()
        events = []
        network.bus.attach(NET_SEND, lambda m, t: events.append(("send", m.uid, t)))
        network.bus.attach(NET_DELIVER, lambda m, t: events.append(("deliver", m.uid, t)))
        network.send(1, 2, "T", None)
        sim.run()
        assert [e[0] for e in events] == ["send", "deliver"]
        assert events[0][1] == events[1][1] == 0
        assert events[1][2] >= events[0][2]

    def test_step_probe_sees_executed_handles(self):
        sim = Simulator()
        times = []
        sim.bus.attach(SIM_STEP, lambda handle: times.append(handle.time))
        sim.call_at(2.0, lambda: None)
        sim.call_soon(lambda: None)
        sim.run()
        assert times == [0.0, 2.0]

    def test_step_probe_skips_cancelled(self):
        sim = Simulator()
        seen = []
        sim.bus.attach(SIM_STEP, lambda handle: seen.append(handle.seq))
        keep = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None).cancel()
        sim.run()
        assert seen == [keep.seq]

    def test_message_counter_attach_detach_reset(self):
        sim, network = self.build()
        counter = MessageCounter().attach(network)
        network.broadcast(1, "X", None)
        sim.run()
        assert counter.total_sends == 3 and counter.total_delivers == 3
        assert counter.sends_by_sender == {1: 3}
        counter.detach(network)
        network.send(1, 2, "Y", None)
        sim.run()
        assert counter.total_sends == 3  # detached: no longer counting
        counter.reset()
        assert counter.total_sends == 0 and not counter.sends_by_tag

    def test_explicit_bus_overrides_simulator_bus(self):
        sim = Simulator()
        bus = InstrumentationBus()
        network = Network(sim, 2, rng=RngRegistry(0), bus=bus)
        assert network.bus is bus and network.bus is not sim.bus


class TestLazyChannels:
    def test_channels_materialize_on_first_use(self):
        sim = Simulator()
        network = Network(sim, 10, rng=RngRegistry(0))
        network.register_process(1, lambda m: None)
        network.register_process(2, lambda m: None)
        assert network.channels_materialized == 0
        network.send(1, 2, "T", None)
        assert network.channels_materialized == 1
        # channel() accessor materializes too, and memoizes.
        chan = network.channel(3, 4)
        assert network.channel(3, 4) is chan
        assert network.channels_materialized == 2

    def test_out_of_range_pair_rejected(self):
        from repro.errors import ConfigurationError

        network = Network(Simulator(), 3, rng=RngRegistry(0))
        with pytest.raises(ConfigurationError):
            network.channel(1, 9)

    def test_lazy_creation_order_does_not_change_delays(self):
        # The same pair must draw the same delays no matter how many
        # other channels were (or were not) created first.
        def delivery_times(warm_all: bool):
            sim = Simulator()
            network = Network(sim, 5, rng=RngRegistry(99))
            inbox = []
            for pid in range(1, 6):
                network.register_process(pid, inbox.append)
            if warm_all:
                for src in range(1, 6):
                    for dst in range(1, 6):
                        network.channel(src, dst)
            for i in range(10):
                network.send(1 + i % 5, 1 + (i + 1) % 5, "T", i)
            sim.run()
            return [(m.uid, sim.now) for m in inbox]

        assert delivery_times(True) == delivery_times(False)
