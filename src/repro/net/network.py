"""The n-process point-to-point network (paper Section 2.1).

The network is *reliable*: it neither loses nor duplicates nor corrupts
messages, and every transfer delay is finite.  It is *authenticated at the
channel level*: a message handed to process ``j`` always carries the true
identity of its sender, so Byzantine processes cannot impersonate others.
Byzantine processes also cannot influence the delivery schedule — delays
are drawn by the channel timing models alone.

Fast-path notes.  Channels are materialized *lazily*: the conceptual
n×n matrix exists, but a :class:`~repro.net.channel.Channel` object (and
its seeded RNG stream) is only built the first time an ordered pair
carries a message, so large-n grid cells stop paying O(n²) setup for
pairs the protocol never exercises.  Laziness cannot perturb results:
each channel's RNG stream is derived from the pair's *key*, not from
creation order.  Observability goes through the instrumentation bus
(:mod:`repro.instrumentation`): the network publishes ``net.send`` and
``net.deliver`` probes whose emit path is a single pointer check while
no sink is attached.  The counters every run result needs
(``messages_sent``, ``sent_by_tag``, ``delivered_by_dest``) stay native —
they are C-level int/dict/list operations, cheaper than any sink
indirection.  A delivery calls the destination's handler straight from
the tag -> handler table the process registered, and every fan-out —
a broadcast, or a Byzantine sender's per-destination payloads — pays
its fixed costs once (:meth:`Network.fan_out`).
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    Sequence,
    Union,
)

from ..errors import ConfigurationError
from ..instrumentation import NET_DELIVER, NET_SEND, InstrumentationBus
from ..sim.pool import MAX_POOL, ObjectPools
from ..sim.random import RngRegistry
from .channel import Channel
from .messages import Message
from .timing import Asynchronous, ChannelTiming, Timely

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.loop import Simulator

__all__ = ["Network"]

#: Delivery bound used for the "virtual" self channel each process has to
#: itself (the paper assumes it exists and is always timely).
_SELF_CHANNEL_DELTA = 1e-9

DeliverFn = Callable[[Message], None]
#: What a process registers: its own tag -> handler dict (read on every
#: delivery, so handlers registered later are seen), or one callable that
#: takes every message.
Recipient = Union[dict[str, DeliverFn], DeliverFn]


class Network:
    """The full n×n channel matrix plus delivery plumbing and counters.

    Args:
        sim: The simulator that owns virtual time.
        n: Number of processes; process ids are ``1..n`` as in the paper.
        timing: Mapping ``(src, dst) -> ChannelTiming`` for specific pairs.
            Pairs not present fall back to ``default_timing``.
        default_timing: Timing model for unspecified pairs
            (default: asynchronous with exponential delays).
        rng: Seed registry; each channel gets stream ``("chan", src, dst)``.
        fifo: Whether channels deliver in FIFO order (default False).
        bus: Instrumentation bus to publish the ``net.send`` /
            ``net.deliver`` probes on (default: the simulator's bus, so
            one run shares one bus without extra wiring).
        pools: Object freelists / intern tables to recycle through
            (default: the simulator's, so one run shares one set and a
            sweep's :class:`KernelContext` keeps them warm across runs).
        recycle: Enable the message freelist.  A retired message is
            re-stamped for a later send *after its delivery handler
            returns*, so protocol code must not retain delivered
            messages (none of the in-repo protocols do; they
            destructure payloads synchronously).  Messages observed by
            an instrumentation sink are **never** recycled — the
            copy-on-emit contract (:mod:`repro.instrumentation`) — so
            tracers and golden fixtures see stable values either way.
    """

    def __init__(
        self,
        sim: "Simulator",
        n: int,
        timing: Mapping[tuple[int, int], ChannelTiming] | None = None,
        default_timing: ChannelTiming | None = None,
        rng: RngRegistry | None = None,
        fifo: bool = False,
        bus: InstrumentationBus | None = None,
        pools: ObjectPools | None = None,
        recycle: bool = False,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"need at least 2 processes, got {n}")
        self.sim = sim
        self.n = n
        self.rng = rng if rng is not None else RngRegistry(0)
        self._default_timing = (
            default_timing if default_timing is not None else Asynchronous()
        )
        overrides = dict(timing) if timing else {}
        for (src, dst) in overrides:
            if not (1 <= src <= n and 1 <= dst <= n):
                raise ConfigurationError(
                    f"timing override for out-of-range pair ({src}, {dst})"
                )
        self._overrides = overrides
        self._self_timing = Timely(delta=_SELF_CHANNEL_DELTA)
        self._fifo = fifo
        #: Lazily materialized channels, keyed by ordered pair.
        self._channels: dict[tuple[int, int], Channel] = {}
        #: ``pid -> (tag -> handler table, catch-all callable)``: one of
        #: the two is live, so a delivery is one ``table.get(tag, default)``.
        self._processes: dict[
            int, tuple[dict[str, DeliverFn], DeliverFn | None]
        ] = {}
        self.bus = bus if bus is not None else getattr(
            sim, "bus", None
        ) or InstrumentationBus()
        self._send_probe = self.bus.probe(NET_SEND)
        self._deliver_probe = self.bus.probe(NET_DELIVER)
        if pools is None:
            pools = getattr(sim, "pools", None)
            if pools is None:
                pools = ObjectPools()
        self.pools = pools
        self._msg_pool = pools.messages
        self._tags = pools.tags
        self._pids = pools.pid_range(n)
        self._recycle = recycle
        #: One bound method for the network's lifetime — ``self._deliver``
        #: at the transmit call site would allocate one per send.
        self._deliver_cb = self._deliver
        self._next_uid = 0
        #: Total messages sent through the network.
        self.messages_sent = 0
        #: Message counts keyed by tag.
        self.sent_by_tag: dict[str, int] = {}
        #: Messages delivered so far, indexed by destination pid (index 0
        #: unused) — what ``Process.delivered_count`` reads.
        self.delivered_by_dest: list[int] = [0] * (n + 1)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_process(self, pid: int, deliver: Recipient) -> None:
        """Attach process ``pid``'s recipient.

        ``deliver`` is either a tag -> handler ``dict`` — the network
        calls the handler for a delivered message's tag straight from
        it and drops tags it has no entry for; the dict is read at every
        delivery, so entries added later count — or a callable that
        takes every message delivered to ``pid``.
        """
        if not 1 <= pid <= self.n:
            raise ConfigurationError(f"process id {pid} out of range 1..{self.n}")
        if pid in self._processes:
            raise ConfigurationError(f"process {pid} registered twice")
        if isinstance(deliver, dict):
            self._processes[pid] = (deliver, None)
        elif callable(deliver):
            self._processes[pid] = ({}, deliver)
        else:
            raise ConfigurationError(
                f"process {pid}: recipient must be a tag -> handler dict "
                f"or a callable, got {type(deliver).__name__}"
            )

    def channel(self, src: int, dst: int) -> Channel:
        """The channel object for the ordered pair (built on first use)."""
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._materialize(src, dst)
        return channel

    def _materialize(self, src: int, dst: int) -> Channel:
        if not (1 <= src <= self.n and 1 <= dst <= self.n):
            raise ConfigurationError(
                f"channel pair ({src}, {dst}) out of range 1..{self.n}"
            )
        model = self._overrides.get((src, dst))
        if model is None:
            model = self._self_timing if src == dst else self._default_timing
        channel = Channel(
            src, dst, model, self.rng.stream("chan", src, dst), fifo=self._fifo
        )
        self._channels[(src, dst)] = channel
        return channel

    @property
    def channels_materialized(self) -> int:
        """How many of the n² conceptual channels actually exist."""
        return len(self._channels)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, tag: str, payload: Any) -> Message:
        """Send one message; returns the stamped :class:`Message`.

        The ``src`` argument is trusted because only the process runtime
        (or the adversary harness, for its own pid) calls this — matching
        the model's no-impersonation guarantee.

        In ``recycle`` mode the returned message is *borrowed*: it is
        valid until its delivery handler returns, after which the kernel
        may re-stamp it for a later send.  Callers that keep it longer
        must take a :meth:`Message.copy`.
        """
        if dst not in self._processes:
            raise ConfigurationError(f"no process registered with id {dst}")
        interned = self._tags.get(tag)
        if interned is None:
            interned = self.pools.intern_tag(tag)
        tag = interned
        now = self.sim._clock._now
        uid = self._next_uid
        self._next_uid = uid + 1
        pools = self.pools
        pool = self._msg_pool
        if pool:
            message = pool.pop()
            pools.messages_reused += 1
            message.sender = src
            message.dest = dst
            message.tag = tag
            message.payload = payload
            message.sent_at = now
            message.uid = uid
        else:
            pools.messages_created += 1
            message = Message(src, dst, tag, payload, now, uid)
        self.messages_sent += 1
        counts = self.sent_by_tag
        counts[tag] = counts.get(tag, 0) + 1
        emit = self._send_probe.emit
        if emit is not None:
            emit(message, now)
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._materialize(src, dst)
        channel.transmit(self.sim, message, self._deliver_cb)
        return message

    def broadcast(self, src: int, tag: str, payload: Any) -> None:
        """Best-effort broadcast: send to every process, self included.

        This is the unreliable broadcast of Section 2.1; a *Byzantine*
        sender is free not to use it and send different payloads to
        different destinations via :meth:`fan_out`.

        A broadcast is the hottest send pattern in every protocol here
        (RB echo/ready floods are n² of these), so it is one
        :meth:`fan_out` batch with the same payload for every
        destination, in ascending order: bit-identical to n :meth:`send`
        calls.
        """
        self.fan_out(src, tag, self._pids, repeat(payload))

    def fan_out(
        self, src: int, tag: str, dsts: Sequence[int], payloads: Iterable[Any]
    ) -> None:
        """Send the i-th of ``payloads`` to ``dsts[i]``, all as one batch.

        The per-send fixed costs — virtual-clock read, uid allocation,
        counter bumps, probe check — are paid once for the whole fan-out
        instead of once per destination.  Observable behaviour is
        bit-identical to one :meth:`send` per pair in ``dsts`` order:
        uids are assigned in that order, counters reach the same values,
        and the probe sees every message with the same stamp.
        """
        count = len(dsts)
        if not count:
            # Everything was dropped: n sends would leave no trace, not
            # even a zero entry in ``sent_by_tag``.
            return
        processes = self._processes
        if len(processes) != self.n:
            # Partial registration: fall back to per-destination sends so
            # the "no process registered" error surfaces identically.
            send = self.send
            for dst, payload in zip(dsts, payloads):
                send(src, dst, tag, payload)
            return
        interned = self._tags.get(tag)
        if interned is None:
            interned = self.pools.intern_tag(tag)
        tag = interned
        now = self.sim._clock._now
        uid = self._next_uid
        self._next_uid = uid + count
        self.messages_sent += count
        counts = self.sent_by_tag
        counts[tag] = counts.get(tag, 0) + count
        pools = self.pools
        pool = self._msg_pool
        reused = len(pool)
        if reused > count:
            reused = count
        pools.messages_reused += reused
        pools.messages_created += count - reused
        emit = self._send_probe.emit
        channels = self._channels
        deliver = self._deliver_cb
        sim = self.sim
        for dst, payload in zip(dsts, payloads):
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

    def _deliver(self, message: Message) -> None:
        emit = self._deliver_probe.emit
        if emit is not None:
            emit(message, self.sim._clock._now)
        dest = message.dest
        self.delivered_by_dest[dest] += 1
        table, default = self._processes[dest]
        handler = table.get(message.tag, default)
        if handler is not None:
            handler(message)
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

    def __repr__(self) -> str:
        return f"Network(n={self.n}, sent={self.messages_sent})"
