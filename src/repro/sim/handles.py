"""Cancellable handles for scheduled simulator callbacks."""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventHandle"]


class EventHandle:
    """A callback scheduled at a virtual-time instant.

    The scheduler runs events in ``(time, seq)`` order, where ``seq`` is
    a global scheduling sequence number; this makes event execution order
    fully deterministic (FIFO among events scheduled for the same
    instant).  The order lives in the scheduler's queues, not in the
    class: handles do not compare.

    The scheduler keeps same-instant handles in a FIFO ready queue and
    future handles in a heap; ``_loop`` points back at the simulator
    only while the handle sits in the *heap*, so that :meth:`cancel`
    can feed the scheduler's lazy-compaction accounting without the
    ready fast path paying for it.  (A future message delivery is a
    heap entry with no handle; see :mod:`repro.sim.loop`.)

    ``_pooled`` marks handles owned by the scheduler's freelist
    (:mod:`repro.sim.pool`): they are created only by the simulator's
    internal scheduling entry points, always on the ready tier, never
    escape the kernel, and are re-armed in place after their callback
    runs.  Handles returned by the public
    ``call_soon``/``call_at``/``call_later`` API are never pooled —
    callers may hold and :meth:`cancel` them at any time.  A pooled
    handle's ``_args`` may be a reusable single-slot *list* (the
    preallocated argument slot of a same-instant delivery) instead of a
    tuple; ``_run`` unpacks either.
    """

    __slots__ = (
        "time", "seq", "_callback", "_args", "_cancelled", "_loop", "_pooled"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._loop = None
        self._pooled = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an already-executed or already-cancelled handle is a
        harmless no-op, matching the asyncio convention.
        """
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references eagerly so cancelled timers do not pin protocol
        # objects in memory for the rest of the run.
        self._callback = _noop
        self._args = ()
        loop = self._loop
        if loop is not None:
            self._loop = None
            loop._heap_cancelled += 1

    def _run(self) -> None:
        """Execute the callback (simulator internal)."""
        self._callback(*self._args)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(time={self.time!r}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Replacement callback installed by :meth:`EventHandle.cancel`."""
