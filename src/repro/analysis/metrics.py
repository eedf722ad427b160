"""Run metrics: message counts, decision latency, round statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..instrumentation import NET_DELIVER, NET_SEND

if TYPE_CHECKING:  # pragma: no cover
    from ..net.messages import Message
    from ..net.network import Network

__all__ = ["MessageCounter", "summarize", "LatencySummary"]


class MessageCounter:
    """Instrumentation sink counting sends/deliveries by tag and sender.

    Attaches to a network's ``net.send`` / ``net.deliver`` probes (one
    sink per probe, no ``kind`` string dispatch).  The network itself
    already counts ``messages_sent`` / ``sent_by_tag`` natively; attach
    a counter only when delivery counts or per-sender breakdowns are
    actually needed — a detached probe costs nothing.
    """

    def __init__(self) -> None:
        self.sends_by_tag: dict[str, int] = {}
        self.delivers_by_tag: dict[str, int] = {}
        self.sends_by_sender: dict[int, int] = {}
        self.total_sends = 0
        self.total_delivers = 0

    def attach(self, network: "Network") -> "MessageCounter":
        """Register this counter on a network; returns self for chaining."""
        network.bus.attach(NET_SEND, self.on_send)
        network.bus.attach(NET_DELIVER, self.on_deliver)
        return self

    def detach(self, network: "Network") -> None:
        """Remove this counter's sinks from a network's probes."""
        network.bus.detach(NET_SEND, self.on_send)
        network.bus.detach(NET_DELIVER, self.on_deliver)

    def reset(self) -> None:
        """Zero every counter (for reuse across runs)."""
        self.sends_by_tag.clear()
        self.delivers_by_tag.clear()
        self.sends_by_sender.clear()
        self.total_sends = 0
        self.total_delivers = 0

    def on_send(self, message: Message, time: float) -> None:
        """``net.send`` probe sink."""
        self.total_sends += 1
        self.sends_by_tag[message.tag] = self.sends_by_tag.get(message.tag, 0) + 1
        self.sends_by_sender[message.sender] = (
            self.sends_by_sender.get(message.sender, 0) + 1
        )

    def on_deliver(self, message: Message, time: float) -> None:
        """``net.deliver`` probe sink."""
        self.total_delivers += 1
        self.delivers_by_tag[message.tag] = (
            self.delivers_by_tag.get(message.tag, 0) + 1
        )


@dataclass
class LatencySummary:
    """Five-number-ish summary of a sample of latencies/rounds."""

    count: int = 0
    mean: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    values: list[float] = field(default_factory=list, repr=False)


def summarize(values: list[float]) -> LatencySummary:
    """Summarize a sample (empty input yields an all-zero summary)."""
    if not values:
        return LatencySummary()
    ordered = sorted(values)

    def percentile(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=percentile(0.5),
        p90=percentile(0.9),
        values=list(values),
    )
