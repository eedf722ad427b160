"""Unit tests for the n-process network."""

import pytest

from repro.errors import ConfigurationError
from repro.instrumentation import NET_DELIVER, NET_SEND
from repro.net import ConstantDelay, Asynchronous, Network, Timely
from repro.sim import RngRegistry, Simulator


def build(n=3, **kwargs):
    sim = Simulator()
    network = Network(sim, n, rng=RngRegistry(0), **kwargs)
    inboxes = {pid: [] for pid in range(1, n + 1)}
    for pid in range(1, n + 1):
        network.register_process(pid, inboxes[pid].append)
    return sim, network, inboxes


class TestWiring:
    def test_requires_two_processes(self):
        with pytest.raises(ConfigurationError):
            Network(Simulator(), 1)

    def test_double_registration_rejected(self):
        sim, network, _ = build()
        with pytest.raises(ConfigurationError):
            network.register_process(1, lambda m: None)

    def test_out_of_range_registration_rejected(self):
        sim = Simulator()
        network = Network(sim, 3)
        with pytest.raises(ConfigurationError):
            network.register_process(9, lambda m: None)

    def test_out_of_range_override_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(Simulator(), 3, timing={(1, 9): Timely(delta=1.0)})

    def test_a_handler_table_is_read_at_every_delivery(self):
        sim = Simulator()
        network = Network(sim, 2, default_timing=Asynchronous(ConstantDelay(1.0)))
        table, seen = {}, []
        network.register_process(1, lambda m: None)
        network.register_process(2, table)
        network.send(1, 2, "EARLY", None)
        network.send(1, 2, "LATE", None)
        table["LATE"] = seen.append  # registered after the sends
        sim.run()
        assert [m.tag for m in seen] == ["LATE"]
        # Both count as delivered, the unhandled tag included.
        assert network.delivered_by_dest == [0, 0, 2]

    def test_a_recipient_must_be_a_table_or_a_callable(self):
        network = Network(Simulator(), 2)
        with pytest.raises(ConfigurationError, match="recipient"):
            network.register_process(1, ["not", "a", "recipient"])

    def test_send_to_unregistered_rejected(self):
        sim = Simulator()
        network = Network(sim, 3)
        network.register_process(1, lambda m: None)
        with pytest.raises(ConfigurationError):
            network.send(1, 2, "T", None)


class TestDelivery:
    def test_point_to_point_delivery(self):
        sim, network, inboxes = build(
            default_timing=Asynchronous(ConstantDelay(1.0))
        )
        network.send(1, 2, "HELLO", {"x": 1})
        sim.run()
        assert len(inboxes[2]) == 1
        delivered = inboxes[2][0]
        assert delivered.sender == 1
        assert delivered.tag == "HELLO"
        assert delivered.payload == {"x": 1}
        assert inboxes[1] == [] and inboxes[3] == []

    def test_sender_identity_is_stamped(self):
        # The network authenticates channels: the receiver always sees
        # the true sender (no impersonation, paper Section 2.1).
        sim, network, inboxes = build()
        network.send(3, 1, "T", None)
        sim.run()
        assert inboxes[1][0].sender == 3

    def test_broadcast_reaches_everyone_including_self(self):
        sim, network, inboxes = build()
        network.broadcast(1, "B", "payload")
        sim.run()
        assert all(len(inboxes[pid]) == 1 for pid in (1, 2, 3))

    def test_self_channel_is_fast(self):
        sim, network, inboxes = build(
            default_timing=Asynchronous(ConstantDelay(100.0))
        )
        network.send(2, 2, "SELF", None)
        sim.run()
        assert sim.now < 1.0
        assert len(inboxes[2]) == 1

    def test_per_pair_override(self):
        sim, network, inboxes = build(
            timing={(1, 2): Asynchronous(ConstantDelay(1.0))},
            default_timing=Asynchronous(ConstantDelay(50.0)),
        )
        network.send(1, 2, "FAST", None)
        network.send(1, 3, "SLOW", None)
        sim.run(until=2.0)
        assert len(inboxes[2]) == 1
        assert len(inboxes[3]) == 0

    def test_message_uids_increase(self):
        sim, network, inboxes = build()
        network.send(1, 2, "A", None)
        network.send(1, 2, "B", None)
        sim.run()
        uids = sorted(m.uid for m in inboxes[2])
        assert uids == [0, 1]


class TestAccounting:
    def test_counters(self):
        sim, network, _ = build()
        network.broadcast(1, "X", None)
        network.send(2, 3, "Y", None)
        assert network.messages_sent == 4
        assert network.sent_by_tag == {"X": 3, "Y": 1}

    def test_hooks_see_sends_and_delivers(self):
        sim, network, _ = build()
        events = []
        network.bus.attach(NET_SEND, lambda m, t: events.append(("send", m.tag)))
        network.bus.attach(
            NET_DELIVER, lambda m, t: events.append(("deliver", m.tag))
        )
        network.send(1, 2, "T", None)
        sim.run()
        assert ("send", "T") in events
        assert ("deliver", "T") in events

    def test_determinism_same_seed(self):
        def run(seed):
            sim = Simulator()
            network = Network(sim, 3, rng=RngRegistry(seed))
            log = []
            for pid in range(1, 4):
                network.register_process(
                    pid, lambda m, pid=pid: log.append((pid, m.uid, sim.now))
                )
            for i in range(10):
                network.broadcast(1 + i % 3, f"T{i}", i)
            sim.run()
            return log

        assert run(7) == run(7)
        assert run(7) != run(8)
