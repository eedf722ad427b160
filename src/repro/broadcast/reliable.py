"""Bracha's reliable broadcast (RB) — paper Section 2.2.

One engine per process multiplexes any number of RB instances.  An
instance is identified by ``(origin, instance_key)``: ``origin`` is the
broadcasting process and ``instance_key`` a protocol-chosen hashable key
(for example ``("AC_EST", round)``).

Protocol (for each instance, with ``n > 3t``):

* the origin broadcasts ``RB_INIT(v)``;
* on the first ``RB_INIT(v)`` from the origin, echo ``RB_ECHO(v)``;
* on ``RB_ECHO(v)`` from ``floor((n+t)/2) + 1`` distinct processes,
  broadcast ``RB_READY(v)`` (if not done yet);
* on ``RB_READY(v)`` from ``t+1`` distinct processes, broadcast
  ``RB_READY(v)`` (amplification, if not done yet);
* on ``RB_READY(v)`` from ``2t+1`` distinct processes, RB-deliver ``v``.

This satisfies RB-Validity, RB-Unicity, RB-Termination-1 and
RB-Termination-2 for ``t < n/3`` (Bracha 1987).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from ..errors import ConfigurationError
from ..net.messages import Message
from ..runtime.process import Process

__all__ = ["ReliableBroadcast", "rb_quorums"]

DeliverCallback = Callable[[int, Any, Any], None]


def rb_quorums(n: int, t: int) -> tuple[int, int, int]:
    """Return (echo quorum, ready amplification, delivery quorum).

    The echo quorum ``floor((n+t)/2) + 1`` guarantees any two echo quorums
    intersect in a correct process; ``t+1`` readies prove one correct
    process sent ready; ``2t+1`` readies guarantee ``t+1`` correct readies,
    enough for every correct process to eventually reach the amplification
    step.
    """
    return ((n + t) // 2 + 1, t + 1, 2 * t + 1)


class _Instance:
    """One ``(origin, instance_key)`` RB instance at one process."""

    __slots__ = (
        "echoed", "readied", "echo_counts", "ready_counts",
        "my_echo", "my_ready", "delivered",
    )

    def __init__(self) -> None:
        # Bitmasks (``1 << sender``) of the processes whose first
        # ECHO/READY was counted: per-sender dedup.
        self.echoed = 0
        self.readied = 0
        # value -> number of first ECHO/READYs carrying it; dropped
        # (None) once the instance delivers.
        self.echo_counts: dict[Any, int] | None = {}
        self.ready_counts: dict[Any, int] | None = {}
        # Whether this process sent its one ECHO / its one READY.
        self.my_echo = False
        self.my_ready = False
        self.delivered = False


class ReliableBroadcast:
    """A multi-instance Bracha reliable-broadcast engine for one process.

    The three message handlers are registered as *non-waking*
    (:meth:`Process.register_handler`): ECHO/READY tallies are read by
    no ``wait`` predicate, so only :meth:`_deliver` — the one place RB
    changes state a predicate can read — rechecks the process's waits.
    """

    INIT = "RB_INIT"
    ECHO = "RB_ECHO"
    READY = "RB_READY"

    def __init__(self, process: Process, n: int, t: int) -> None:
        if not 0 <= t or not n > 3 * t:
            raise ConfigurationError(
                f"reliable broadcast requires n > 3t, got n={n}, t={t}"
            )
        self.process = process
        self.n = n
        self.t = t
        self.echo_quorum, self.ready_amplify, self.deliver_quorum = rb_quorums(n, t)
        #: (origin, instance_key) -> record, created on first touch.
        self._instances: defaultdict[tuple[int, Any], _Instance] = defaultdict(
            _Instance
        )
        #: (origin, instance_key) -> delivered value.
        self.delivered: dict[tuple[int, Any], Any] = {}
        #: instance_key -> {origin: value} in delivery order.
        self._delivered_by_key: dict[Any, dict[int, Any]] = {}
        self._subscribers: dict[Any, list[DeliverCallback]] = {}
        self._global_subscribers: list[DeliverCallback] = []
        process.register_handler(self.INIT, self._on_init, wakes=False)
        process.register_handler(self.ECHO, self._on_echo, wakes=False)
        process.register_handler(self.READY, self._on_ready, wakes=False)

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def broadcast(self, instance_key: Any, value: Any) -> None:
        """RB-broadcast ``value`` for ``instance_key`` (origin = this pid)."""
        self.process.broadcast(self.INIT, (instance_key, value))

    def delivered_value(self, origin: int, instance_key: Any) -> Any | None:
        """Value RB-delivered from ``origin`` for ``instance_key``, if any."""
        return self.delivered.get((origin, instance_key))

    def delivered_from(self, instance_key: Any) -> dict[int, Any]:
        """Live ``{origin: value}`` map for ``instance_key``, delivery order."""
        return self._delivered_by_key.setdefault(instance_key, {})

    def subscribe(self, instance_key: Any, callback: DeliverCallback) -> None:
        """Call ``callback(origin, instance_key, value)`` on each delivery.

        Deliveries that happened before subscription are replayed
        immediately, so late-constructed protocol objects (e.g. the
        adopt-commit object of a round another process already reached)
        observe the full history.
        """
        self._subscribers.setdefault(instance_key, []).append(callback)
        for origin, value in list(self.delivered_from(instance_key).items()):
            callback(origin, instance_key, value)

    def subscribe_all(self, callback: DeliverCallback) -> None:
        """Call ``callback`` for every delivery of every instance (tracing)."""
        self._global_subscribers.append(callback)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_init(self, message: Message) -> None:
        instance_key, value = message.payload
        origin = message.sender
        instance = self._instances[origin, instance_key]
        # Echo only the *first* INIT from this origin for this instance —
        # a Byzantine origin sending several INITs gets exactly one echo.
        # ``my_echo`` outlives delivery: an INIT overtaken by 2t+1 READYs
        # is still echoed once.
        if instance.my_echo:
            return
        instance.my_echo = True
        self.process.broadcast(self.ECHO, (origin, instance_key, value))

    def _on_echo(self, message: Message) -> None:
        origin, instance_key, value = message.payload
        instance = self._instances[origin, instance_key]
        if instance.delivered:
            # Dead message: delivery implies ``my_ready``, so no echo
            # count can cause a send any more.
            return
        bit = 1 << message.sender
        if instance.echoed & bit:
            return
        instance.echoed |= bit
        counts = instance.echo_counts
        count = counts[value] = counts.get(value, 0) + 1
        if count >= self.echo_quorum and not instance.my_ready:
            instance.my_ready = True
            self.process.broadcast(self.READY, (origin, instance_key, value))

    def _on_ready(self, message: Message) -> None:
        origin, instance_key, value = message.payload
        instance = self._instances[origin, instance_key]
        if instance.delivered:
            # Dead message: ``my_ready`` is set (2t+1 >= t+1 readies were
            # counted) and an instance delivers once.
            return
        bit = 1 << message.sender
        if instance.readied & bit:
            return
        instance.readied |= bit
        counts = instance.ready_counts
        count = counts[value] = counts.get(value, 0) + 1
        if count >= self.ready_amplify:
            if not instance.my_ready:
                instance.my_ready = True
                self.process.broadcast(self.READY, (origin, instance_key, value))
            if count >= self.deliver_quorum:  # 2t+1 >= t+1: nested is exact
                self._deliver(origin, instance_key, value)

    def _deliver(self, origin: int, instance_key: Any, value: Any) -> None:
        key = (origin, instance_key)
        instance = self._instances[key]
        instance.delivered = True
        instance.echo_counts = instance.ready_counts = None
        self.delivered[key] = value
        self._delivered_by_key.setdefault(instance_key, {})[origin] = value
        for callback in self._subscribers.get(instance_key, []):
            callback(origin, instance_key, value)
        for callback in self._global_subscribers:
            callback(origin, instance_key, value)
        # The handlers are non-waking; a delivery is the only RB state
        # change a ``wait`` predicate can read.
        self.process.notify()
