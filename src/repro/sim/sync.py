"""Synchronization primitives for simulated protocol code.

The central primitive is :class:`ConditionVar.wait_until`, which implements
the paper's ``wait (<predicate>)`` statements: the awaiting coroutine is
resumed as soon as the predicate becomes true, and predicates are
re-evaluated whenever the owning component calls :meth:`ConditionVar.recheck`
(for a process: after every message handled by a waking handler, and on
every ``notify()`` of a local state change).
"""

from __future__ import annotations

from typing import Any, Callable

from .futures import Future

__all__ = ["SimEvent", "ConditionVar"]


class SimEvent:
    """A level-triggered flag, analogous to :class:`asyncio.Event`.

    Each call to :meth:`wait` returns a fresh future, so cancelling one
    waiter never disturbs the others.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._is_set = False
        self._waiters: list[Future] = []

    def is_set(self) -> bool:
        """Whether the event is currently set."""
        return self._is_set

    def set(self) -> None:
        """Set the flag and wake every waiter."""
        if self._is_set:
            return
        self._is_set = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(True)

    def clear(self) -> None:
        """Reset the flag; subsequent :meth:`wait` calls block again."""
        self._is_set = False

    def wait(self) -> Future:
        """Return a future that completes once the event is set."""
        fut = Future(name=f"{self.name}.wait")
        if self._is_set:
            fut.set_result(True)
        else:
            self._waiters.append(fut)
        return fut


class ConditionVar:
    """Predicate-based waiting with explicit rechecks.

    ``wait_until(pred)`` resolves with the (truthy) value returned by
    ``pred()``; returning a witness object (for example the set of message
    senders that satisfied a quorum) is encouraged, since the algorithms in
    the paper act on *the messages that made the predicate true*.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[tuple[Callable[[], Any], Future]] = []

    def wait_until(self, predicate: Callable[[], Any]) -> Future:
        """Return a future resolving with ``predicate()`` once it is truthy."""
        fut = Future(name=f"{self.name}.wait_until")
        value = predicate()
        if value:
            fut.set_result(value)
        else:
            self._waiters.append((predicate, fut))
        return fut

    def recheck(self) -> int:
        """Re-evaluate pending predicates; return how many waiters fired.

        Predicates must be side-effect free: they may run any number of
        times.  Waiters whose future was cancelled are dropped.
        """
        pending = self._waiters
        if not pending:
            return 0
        # Detach before iterating.  Firing a waiter steps its coroutine
        # synchronously, and that step may call ``wait_until`` or re-enter
        # ``recheck`` (a ``notify()``): both must act on the live list —
        # survivors so far plus new registrations — never on one this
        # pass is about to overwrite.
        self._waiters = []
        fired = 0
        for predicate, fut in pending:
            if fut.done():
                continue
            value = predicate()
            if value:
                fut.set_result(value)
                fired += 1
            else:
                self._waiters.append((predicate, fut))
        return fired

    @property
    def waiting(self) -> int:
        """Number of unresolved waiters."""
        return sum(1 for _, fut in self._waiters if not fut.done())

    def __repr__(self) -> str:
        return f"ConditionVar({self.name!r}, waiting={self.waiting})"
