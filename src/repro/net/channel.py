"""A unidirectional point-to-point channel.

Each ordered pair of processes is connected by its own channel with its
own timing model (the paper stresses that the two directions between two
processes may have *different* timing properties).  The channel is
reliable: it never loses, duplicates, corrupts or forges messages.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from .messages import Message
from .timing import ChannelTiming

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.loop import Simulator

__all__ = ["Channel"]


class Channel:
    """One direction of a process pair, with its own timing and RNG stream.

    When ``fifo`` is true, delivery times are clamped to be non-decreasing.
    The paper's algorithms do not require FIFO channels, so the default is
    non-FIFO; the clamp never violates an eventually-timely bound because
    the bound ``max(tau, s) + delta`` is monotone in the send time ``s``.
    """

    __slots__ = ("src", "dst", "timing", "rng", "fifo", "_last_delivery")

    def __init__(
        self,
        src: int,
        dst: int,
        timing: ChannelTiming,
        rng: random.Random,
        fifo: bool = False,
    ) -> None:
        self.src = src
        self.dst = dst
        self.timing = timing
        self.rng = rng
        self.fifo = fifo
        self._last_delivery = 0.0

    def transmit(
        self,
        sim: "Simulator",
        message: Message,
        deliver: Callable[[Message], None],
    ) -> float:
        """Schedule delivery of ``message``; return the delivery time."""
        send_time = sim._clock._now
        delivery_time = self.timing.delivery_time_for(message, send_time, self.rng)
        if delivery_time < send_time:
            # Defensive: a broken timing model must not move time backwards.
            delivery_time = send_time
        if self.fifo and delivery_time < self._last_delivery:
            delivery_time = self._last_delivery
        self._last_delivery = delivery_time
        sim.schedule_delivery(delivery_time, deliver, message)
        return delivery_time

    def __repr__(self) -> str:
        return f"Channel({self.src}->{self.dst}, {self.timing.describe()})"
