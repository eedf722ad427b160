"""Batched ``Network.broadcast`` / ``Network.fan_out`` must be
indistinguishable from one send per destination.

The batch hoists the clock read, uid allocation, counter bumps and
probe check out of the per-destination loop; everything observable —
uid order, timestamps, counters, probe emissions, delivery schedule and
the partial-registration error — has to match the unbatched per-``send``
expansion bit for bit.
"""

import pytest

from repro.errors import ConfigurationError
from repro.instrumentation import NET_SEND
from repro.net import Network
from repro.net.timing import Timely
from repro.sim import RngRegistry, Simulator


def build_network(n: int = 4, seed: int = 9) -> tuple[Simulator, Network, list]:
    sim = Simulator()
    network = Network(
        sim, n, default_timing=Timely(delta=1.0), rng=RngRegistry(seed)
    )
    delivered: list = []
    for pid in range(1, n + 1):
        network.register_process(
            pid, lambda m, pid=pid: delivered.append((pid, m))
        )
    return sim, network, delivered


class TestBroadcastEquivalence:
    def test_broadcast_matches_per_destination_sends(self):
        sim_a, net_a, recv_a = build_network()
        net_a.broadcast(1, "TAG", ("payload", 7))
        sim_a.run()

        sim_b, net_b, recv_b = build_network()
        for dst in range(1, net_b.n + 1):
            net_b.send(1, dst, "TAG", ("payload", 7))
        sim_b.run()

        def facts(messages):
            return [
                (pid, m.sender, m.dest, m.tag, m.payload, m.sent_at, m.uid)
                for pid, m in messages
            ]

        assert facts(recv_a) == facts(recv_b)
        assert net_a.messages_sent == net_b.messages_sent == 4
        assert net_a.sent_by_tag == net_b.sent_by_tag == {"TAG": 4}
        assert net_a._next_uid == net_b._next_uid == 4

    def test_uids_ascend_in_destination_order(self):
        _, network, _ = build_network()
        seen = []
        network.bus.probe(NET_SEND).attach(
            lambda m, now: seen.append((m.dest, m.uid, m.sent_at))
        )
        network.broadcast(2, "X", None)
        assert seen == [(1, 0, 0.0), (2, 1, 0.0), (3, 2, 0.0), (4, 3, 0.0)]

    def test_interleaved_broadcasts_and_sends_share_the_uid_stream(self):
        sim, network, delivered = build_network()
        network.broadcast(1, "A", None)
        network.send(2, 3, "B", None)
        network.broadcast(3, "C", None)
        sim.run()
        uids = sorted(m.uid for _, m in delivered)
        assert uids == list(range(9))
        assert network.sent_by_tag == {"A": 4, "B": 1, "C": 4}

    def test_broadcast_stamps_current_virtual_time(self):
        sim, network, delivered = build_network()
        sim.call_at(5.0, lambda: network.broadcast(1, "LATE", None))
        sim.run()
        assert all(m.sent_at == 5.0 for _, m in delivered)

    def test_probe_sees_every_message_when_attached(self):
        _, network, _ = build_network()
        emitted = []
        network.bus.probe(NET_SEND).attach(
            lambda m, now: emitted.append((m.uid, now))
        )
        network.broadcast(1, "T", None)
        assert emitted == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]


class TestFanOut:
    def test_fan_out_matches_per_destination_sends(self):
        sim_a, net_a, recv_a = build_network()
        net_a.fan_out(2, "TAG", [1, 3, 4], ["x", "y", "z"])
        sim_a.run()

        sim_b, net_b, recv_b = build_network()
        for dst, payload in zip([1, 3, 4], ["x", "y", "z"]):
            net_b.send(2, dst, "TAG", payload)
        sim_b.run()

        def facts(network, messages):
            return (
                [(pid, m.sender, m.dest, m.payload, m.sent_at, m.uid)
                 for pid, m in messages],
                network.messages_sent, network.sent_by_tag, network._next_uid,
                network.pools.messages_created, network.pools.messages_reused,
            )

        assert facts(net_a, recv_a) == facts(net_b, recv_b)
        assert [m.payload for _, m in recv_a] == ["x", "y", "z"]

    def test_an_empty_fan_out_leaves_no_trace(self):
        _, network, _ = build_network()
        network.fan_out(1, "NEVER", [], [])
        assert (network.messages_sent, network.sent_by_tag, network._next_uid) == (
            0, {}, 0
        )


class TestPartialRegistration:
    def test_broadcast_to_unregistered_process_still_errors(self):
        sim = Simulator()
        network = Network(sim, 3, rng=RngRegistry(1))
        network.register_process(1, lambda m: None)
        network.register_process(2, lambda m: None)  # pid 3 missing
        with pytest.raises(ConfigurationError, match="no process registered"):
            network.broadcast(1, "T", None)
        # The fallback charged the delivered prefix exactly like n sends.
        assert network.messages_sent == 2
        assert network._next_uid == 2

    def test_fan_out_to_unregistered_process_still_errors(self):
        sim = Simulator()
        network = Network(sim, 3, rng=RngRegistry(1))
        network.register_process(1, lambda m: None)
        network.register_process(2, lambda m: None)  # pid 3 missing
        with pytest.raises(ConfigurationError, match="no process registered"):
            network.fan_out(1, "T", [2, 3], ["a", "b"])
        assert network.messages_sent == 1
