"""Point-to-point network substrate with per-channel timing models."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .messages import Message
    from .network import Network
    from .timing import (
        Asynchronous, ChannelTiming, ConstantDelay, DelayDistribution,
        EventuallyTimely, ExponentialDelay, PerTagTiming,
        ScriptedDelay, ScriptedTiming, Timely, UniformDelay,
    )
    from .topology import (
        Topology, bisource_sets, fully_asynchronous, fully_timely,
        is_bisource, single_bisource,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".channel": ("Channel",),
    ".messages": ("Message",),
    ".network": ("Network",),
    ".timing": (
        "Asynchronous", "ChannelTiming", "ConstantDelay",
        "DelayDistribution", "EventuallyTimely", "ExponentialDelay",
        "PerTagTiming", "ScriptedDelay", "ScriptedTiming", "Timely",
        "UniformDelay",
    ),
    ".topology": (
        "Topology", "bisource_sets", "fully_asynchronous",
        "fully_timely", "is_bisource", "single_bisource",
    ),
})
