"""Broadcast stack: best-effort, Bracha reliable, cooperative (Figure 1)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .unreliable import BestEffortBroadcast
    from .reliable import ReliableBroadcast, rb_quorums
    from .cooperative import (
        CooperativeBroadcast, BotCooperativeBroadcast,
        bot_witness_exists,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".unreliable": ("BestEffortBroadcast",),
    ".reliable": ("ReliableBroadcast", "rb_quorums"),
    ".cooperative": (
        "CooperativeBroadcast", "BotCooperativeBroadcast",
        "bot_witness_exists",
    ),
})
