"""Unit tests for single channels."""

import random

from repro.net.channel import Channel
from repro.net.messages import Message
from repro.net.timing import ConstantDelay, Asynchronous
from repro.sim import Simulator


def make_channel(timing, fifo=False):
    return Channel(1, 2, timing, random.Random(0), fifo=fifo)


def msg(uid=0):
    return Message(sender=1, dest=2, tag="T", payload=None, uid=uid)


class TestChannelTransmit:
    def test_delivery_scheduled_at_computed_time(self):
        sim = Simulator()
        chan = make_channel(Asynchronous(ConstantDelay(3.0)))
        delivered = []
        chan.transmit(sim, msg(), delivered.append)
        sim.run()
        assert sim.now == 3.0
        assert len(delivered) == 1

    def test_transmit_returns_the_delivery_time(self):
        sim = Simulator()
        chan = make_channel(Asynchronous(ConstantDelay(2.0)))
        times = [chan.transmit(sim, msg(i), lambda m: None) for i in range(4)]
        assert times == [2.0] * 4
        assert repr(chan) == f"Channel(1->2, {chan.timing.describe()})"

    def test_non_fifo_can_reorder(self):
        sim = Simulator()
        delays = iter([5.0, 1.0])

        class TwoDelays(Asynchronous):
            def delivery_time(self, send_time, rng):
                return send_time + next(delays)

        chan = make_channel(TwoDelays())
        order = []
        chan.transmit(sim, msg(0), lambda m: order.append(m.uid))
        chan.transmit(sim, msg(1), lambda m: order.append(m.uid))
        sim.run()
        assert order == [1, 0]

    def test_fifo_clamps_delivery(self):
        sim = Simulator()
        delays = iter([5.0, 1.0])

        class TwoDelays(Asynchronous):
            def delivery_time(self, send_time, rng):
                return send_time + next(delays)

        chan = make_channel(TwoDelays(), fifo=True)
        order = []
        chan.transmit(sim, msg(0), lambda m: order.append((m.uid, sim.now)))
        chan.transmit(sim, msg(1), lambda m: order.append((m.uid, sim.now)))
        sim.run()
        assert [uid for uid, _ in order] == [0, 1]
        assert order[1][1] >= order[0][1]
