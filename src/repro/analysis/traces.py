"""Structured execution traces with JSON export.

A :class:`Tracer` can be attached to a network (recording every send and
delivery) and fed protocol-level events (RB deliveries, decisions).  The
invariant checkers and the debugging examples consume these traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..instrumentation import NET_DELIVER, NET_SEND
from ..net.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped event.

    ``kind`` is one of ``"send"``, ``"deliver"``, ``"rb_deliver"``,
    ``"decide"`` or any protocol-chosen label; ``detail`` is a flat,
    JSON-friendly mapping.
    """

    time: float
    kind: str
    pid: int | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        """A JSON-serializable representation (values coerced to strings
        when they are not primitive)."""
        def coerce(value: Any) -> Any:
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return repr(value)

        return {
            "time": self.time,
            "kind": self.kind,
            "pid": self.pid,
            "detail": {key: coerce(val) for key, val in self.detail.items()},
        }


class Tracer:
    """An append-only event log.

    Attach to a network with :meth:`attach_network`; record protocol
    events with :meth:`record`.  ``max_events`` guards memory on long
    runs (oldest events are *not* evicted; recording just stops, and
    :attr:`truncated` flags it).
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.events: list[TraceEvent] = []
        self.max_events = max_events
        self.truncated = False

    def attach_network(self, network: "Network") -> "Tracer":
        """Record every network send/delivery; returns self.

        Implemented as two instrumentation-bus sinks (``net.send`` /
        ``net.deliver``), so an unattached tracer costs the network
        nothing at all.
        """
        network.bus.attach(NET_SEND, self._on_send)
        network.bus.attach(NET_DELIVER, self._on_deliver)
        return self

    def record(
        self, time: float, kind: str, pid: int | None = None, **detail: Any
    ) -> None:
        """Append one event (no-op once ``max_events`` is reached)."""
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(TraceEvent(time=time, kind=kind, pid=pid, detail=detail))

    def _on_send(self, message: Message, time: float) -> None:
        self.record(
            time, "send", pid=message.sender,
            sender=message.sender, dest=message.dest, tag=message.tag,
            uid=message.uid, payload=message.payload,
        )

    def _on_deliver(self, message: Message, time: float) -> None:
        self.record(
            time, "deliver", pid=message.dest,
            sender=message.sender, dest=message.dest, tag=message.tag,
            uid=message.uid, payload=message.payload,
        )

    def filter(self, kind: str | None = None, pid: int | None = None) -> Iterator[TraceEvent]:
        """Iterate events matching the given kind and/or pid."""
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if pid is not None and event.pid != pid:
                continue
            yield event

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the whole trace to a JSON array."""
        return json.dumps([event.to_json_obj() for event in self.events], indent=indent)

    def __len__(self) -> int:
        return len(self.events)
