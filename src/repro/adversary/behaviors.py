"""Byzantine process machinery.

Two complementary kinds of adversarial actors:

* :class:`MisbehavingProcess` — a process that *runs the real protocol*
  but passes every outgoing message through an outbound filter which may
  drop or rewrite it (per destination).  This produces realistic,
  protocol-aware Byzantine behaviour — equivocation inside reliable
  broadcast, muting the coordinator role, crashing mid-run — without
  reimplementing the protocols.
* :class:`RawByzantine` — a message-level actor that does not run any
  protocol: it stays silent (crash from the start) or sprays noise.

Both respect the model's hard limits (Section 2.1): they send under their
own identity only and have no influence over the message schedule.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable

from ..net.messages import Message
from ..runtime.process import Process
from .strategies import DROP, OutboundFilter

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.loop import Simulator

__all__ = ["MisbehavingProcess", "RawByzantine"]


class MisbehavingProcess(Process):
    """A protocol-running process whose outgoing traffic is adversarial.

    The outbound filter sees every message (including reliable-broadcast
    echoes and readies) just before transmission and may rewrite the
    payload differently per destination, or drop it.  A broadcast runs
    the filter once per destination, in ascending order, so a filter can
    equivocate — same protocol step, different value per receiver — and
    the survivors leave as one :meth:`Network.fan_out` batch.
    """

    def __init__(
        self,
        pid: int,
        sim: "Simulator",
        network: "Network",
        outbound_filter: OutboundFilter,
    ) -> None:
        super().__init__(pid, sim, network)
        self._outbound_filter = outbound_filter

    def send(self, dst: int, tag: str, payload: Any) -> None:
        filtered = self._outbound_filter(dst, tag, payload, self.sim.now)
        if filtered is DROP:
            return
        super().send(dst, tag, filtered)

    def broadcast(self, tag: str, payload: Any) -> None:
        outbound = self._outbound_filter
        now = self.sim.now
        dsts = []
        payloads = []
        for dst in range(1, self.network.n + 1):
            filtered = outbound(dst, tag, payload, now)
            if filtered is not DROP:
                dsts.append(dst)
                payloads.append(filtered)
        self.network.fan_out(self.pid, tag, dsts, payloads)

    def __repr__(self) -> str:
        return f"MisbehavingProcess(pid={self.pid})"


class RawByzantine:
    """A non-protocol Byzantine actor.

    With ``noise_probability = 0`` it is a from-the-start crash: it
    registers with the network (so deliveries to it are well defined) and
    never sends anything.  With a positive probability it answers each
    received message with forged traffic built by ``forge`` — by default a
    structurally valid-looking payload mutation sent to a random process.
    """

    def __init__(
        self,
        pid: int,
        sim: "Simulator",
        network: "Network",
        rng: random.Random,
        noise_probability: float = 0.0,
        forge: Callable[["RawByzantine", Message], None] | None = None,
    ) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.rng = rng
        self.noise_probability = noise_probability
        self._forge = forge if forge is not None else _default_forge
        network.register_process(pid, self._on_message)

    @property
    def received(self) -> int:
        """Messages delivered to this actor so far."""
        return self.network.delivered_by_dest[self.pid]

    def send_raw(self, dst: int, tag: str, payload: Any) -> None:
        """Send an arbitrary message under this actor's own identity."""
        self.network.send(self.pid, dst, tag, payload)

    def broadcast_raw(self, tag: str, payload: Any) -> None:
        """Send an arbitrary message to every process."""
        self.network.broadcast(self.pid, tag, payload)

    def _on_message(self, message: Message) -> None:
        if self.noise_probability > 0 and self.rng.random() < self.noise_probability:
            self._forge(self, message)


def _default_forge(actor: RawByzantine, message: Message) -> None:
    """Reflect a mutated copy of the received message at a random process.

    Keeps the tag (so correct handlers actually parse it) but garbles the
    value position of tuple payloads; non-tuple payloads are replayed
    verbatim under the actor's identity.
    """
    payload = message.payload
    if isinstance(payload, tuple) and payload:
        payload = payload[:-1] + (("byz", actor.pid, actor.rng.randrange(1000)),)
    target = actor.rng.randrange(1, actor.network.n + 1)
    actor.send_raw(target, message.tag, payload)
