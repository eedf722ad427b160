"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: a
virtual clock, an event heap with total deterministic order, awaitable
futures/tasks, predicate-based waiting, and reproducible hierarchical
random streams.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .clock import VirtualClock
    from .futures import Future
    from .handles import EventHandle
    from .loop import Simulator
    from .random import RngRegistry, derive_seed, substream
    from .sync import ConditionVar, SimEvent
    from .tasks import Task, gather

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".clock": ("VirtualClock",),
    ".futures": ("Future",),
    ".handles": ("EventHandle",),
    ".loop": ("Simulator",),
    ".random": ("RngRegistry", "derive_seed", "substream"),
    ".sync": ("ConditionVar", "SimEvent"),
    ".tasks": ("Task", "gather"),
})
