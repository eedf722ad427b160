"""The per-message path above the channel as it was before deliveries
went straight to the handler and Byzantine fan-outs were batched.

A differential oracle, not production code: every method below is the
earlier body verbatim.  A delivery takes two frames —
``ReferenceNetwork._deliver`` calls the recipient's ``_on_message``,
which bumps its own count and looks the handler up — and every
Byzantine broadcast is one filter call plus one ``Network.send`` per
destination.  :func:`install` swaps these classes in where
:func:`repro.orchestration.runner.build_runtime` looks its classes up,
so a whole consensus run can execute on either path.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import RawByzantine
from repro.adversary.strategies import DROP
from repro.errors import ConfigurationError
from repro.net.messages import Message
from repro.net.network import Network
from repro.runtime.process import Process
from repro.sim.pool import MAX_POOL
from repro.sim.sync import ConditionVar

__all__ = [
    "ReferenceMisbehavingProcess",
    "ReferenceNetwork",
    "ReferenceProcess",
    "ReferenceRawByzantine",
    "install",
]


class ReferenceNetwork(Network):
    """Recipients are callables, and ``broadcast`` has its own body rather
    than being a uniform-payload ``fan_out``."""

    def register_process(self, pid, deliver):
        """Attach the delivery callback for process ``pid``."""
        if not 1 <= pid <= self.n:
            raise ConfigurationError(f"process id {pid} out of range 1..{self.n}")
        if pid in self._processes:
            raise ConfigurationError(f"process {pid} registered twice")
        self._processes[pid] = deliver

    def broadcast(self, src: int, tag: str, payload: Any) -> None:
        """Best-effort broadcast: send to every process, self included.

        This is the unreliable broadcast of Section 2.1; a *Byzantine*
        sender is free not to use it and send different payloads to
        different destinations via :meth:`send`.

        Batched: a broadcast is the hottest send pattern in every
        protocol here (RB echo/ready floods are n² of these), so the
        per-send fixed costs — virtual-clock read, uid allocation,
        counter bumps, probe check — are paid once for the whole fan-out
        instead of once per destination.  Observable behaviour is
        bit-identical to n :meth:`send` calls: uids are assigned in the
        same ascending destination order, counters reach the same
        values, and the probe sees every message with the same stamp.
        """
        processes = self._processes
        n = self.n
        if len(processes) != n:
            # Partial registration: fall back to per-destination sends so
            # the "no process registered" error surfaces identically.
            send = self.send
            for dst in range(1, n + 1):
                send(src, dst, tag, payload)
            return
        interned = self._tags.get(tag)
        if interned is None:
            interned = self.pools.intern_tag(tag)
        tag = interned
        now = self.sim._clock._now
        uid = self._next_uid
        self._next_uid = uid + n
        self.messages_sent += n
        counts = self.sent_by_tag
        counts[tag] = counts.get(tag, 0) + n
        pools = self.pools
        pool = self._msg_pool
        reused = len(pool)
        if reused > n:
            reused = n
        pools.messages_reused += reused
        pools.messages_created += n - reused
        emit = self._send_probe.emit
        channels = self._channels
        deliver = self._deliver_cb
        sim = self.sim
        for dst in self._pids:
            if pool:
                message = pool.pop()
                message.sender = src
                message.dest = dst
                message.tag = tag
                message.payload = payload
                message.sent_at = now
                message.uid = uid
            else:
                message = Message(src, dst, tag, payload, now, uid)
            uid += 1
            if emit is not None:
                emit(message, now)
            channel = channels.get((src, dst))
            if channel is None:
                channel = self._materialize(src, dst)
            channel.transmit(sim, message, deliver)

    def fan_out(self, src, tag, dsts, payloads):
        raise AssertionError("the reference path never batches a fan-out")

    def _deliver(self, message):
        emit = self._deliver_probe.emit
        if emit is not None:
            emit(message, self.sim._clock._now)
        self._processes[message.dest](message)
        # Retire the message once the handler returns.  Copy-on-emit: a
        # message any probe observed is never recycled, so sinks that
        # retain references (tracers, golden fixtures) stay valid.
        if (
            self._recycle
            and emit is None
            and self._send_probe.emit is None
            and len(self._msg_pool) < MAX_POOL
        ):
            message.payload = None
            self._msg_pool.append(message)


class ReferenceProcess(Process):
    """Counts and dispatches its own deliveries."""

    #: Shadows the network-side count: the instance keeps its own.
    delivered_count = 0

    def __init__(self, pid, sim, network):
        self.pid = pid
        self.sim = sim
        self.network = network
        self._handlers = {}
        self._cond = ConditionVar(name=f"p{pid}")
        self._tasks = []
        #: Messages delivered to this process so far.
        self.delivered_count = 0
        network.register_process(pid, self._on_message)

    def _on_message(self, message):
        self.delivered_count += 1
        handler = self._handlers.get(message.tag)
        if handler is not None:
            handler(message)


class ReferenceMisbehavingProcess(ReferenceProcess):
    """Filters and sends one destination at a time."""

    def __init__(self, pid, sim, network, outbound_filter):
        super().__init__(pid, sim, network)
        self._outbound_filter = outbound_filter

    def send(self, dst: int, tag: str, payload: Any) -> None:
        filtered = self._outbound_filter(dst, tag, payload, self.sim.now)
        if filtered is DROP:
            return
        super().send(dst, tag, filtered)

    def broadcast(self, tag: str, payload: Any) -> None:
        # Expand so the filter can treat each destination differently.
        for dst in range(1, self.network.n + 1):
            self.send(dst, tag, payload)


class ReferenceRawByzantine(RawByzantine):
    """Counts its own deliveries; a raw broadcast is ``n`` raw sends."""

    #: Shadows the network-side count: the instance keeps its own.
    received = 0

    def broadcast_raw(self, tag: str, payload: Any) -> None:
        """Send an arbitrary message to every process."""
        for dst in range(1, self.network.n + 1):
            self.send_raw(dst, tag, payload)

    def _on_message(self, message):
        self.received += 1
        if self.noise_probability > 0 and self.rng.random() < self.noise_probability:
            self._forge(self, message)


def install(monkeypatch) -> None:
    """Make ``build_runtime`` wire the reference classes."""
    from repro.orchestration import runner

    monkeypatch.setattr(runner, "Network", ReferenceNetwork)
    monkeypatch.setattr(runner, "Process", ReferenceProcess)
    monkeypatch.setattr(runner, "MisbehavingProcess", ReferenceMisbehavingProcess)
    monkeypatch.setattr(runner, "RawByzantine", ReferenceRawByzantine)

