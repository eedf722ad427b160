"""Process runtime: event-driven processes and paper-semantics timers."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process
    from .timers import RoundTimer

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".process": ("Process",),
    ".timers": ("RoundTimer",),
})
