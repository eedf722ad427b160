"""The paper's primary contribution: AC, EA and synchrony-optimal consensus."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .adopt_commit import AdoptCommit, Tag, most_frequent
    from .consensus import Consensus
    from .consensus_variant import BotConsensus
    from .coord import (
        alpha, beta, combination_unrank, coordinator, f_set,
        f_set_index, worst_case_round_bound,
    )
    from .eventual_agreement import EventualAgreement, default_timeout
    from .values import BOT, Bot, Selector, first_added, smallest

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".adopt_commit": ("AdoptCommit", "Tag", "most_frequent"),
    ".consensus": ("Consensus",),
    ".consensus_variant": ("BotConsensus",),
    ".coord": (
        "alpha", "beta", "combination_unrank", "coordinator", "f_set",
        "f_set_index", "worst_case_round_bound",
    ),
    ".eventual_agreement": ("EventualAgreement", "default_timeout"),
    ".values": ("BOT", "Bot", "Selector", "first_added", "smallest"),
})
