"""Byzantine adversary library: actors, outbound filters, named strategies."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import (
        DROP, OutboundFilter, AdversarySpec, bot_relays, collude,
        compose_filters, crash, crash_at, crash_at_filter, flip_flop,
        flip_flop_filter, honest_filter, mute_coordinator,
        mute_coordinator_filter, noise, spam_decide, two_faced,
        two_faced_filter,
    )
    from .behaviors import MisbehavingProcess, RawByzantine

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".strategies": (
        "DROP", "OutboundFilter", "AdversarySpec", "bot_relays",
        "collude", "compose_filters", "crash", "crash_at",
        "crash_at_filter", "flip_flop", "flip_flop_filter",
        "honest_filter", "mute_coordinator", "mute_coordinator_filter",
        "noise", "spam_decide", "two_faced", "two_faced_filter",
    ),
    ".behaviors": ("MisbehavingProcess", "RawByzantine"),
})
