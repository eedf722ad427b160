"""The process runtime: mailboxes, handlers and predicate waits.

Every correct process in the paper's algorithms is an event-driven state
machine with two kinds of activity:

* ``when <message> ... do`` handlers — registered per message tag with
  :meth:`Process.register_handler`;
* blocking operations containing ``wait (<predicate>)`` lines — written as
  ``await self.wait_until(lambda: ...)``.

Predicates are re-evaluated after every message handled by a *waking*
handler (the default) and whenever a component (a timer callback, a
non-waking handler that changed readable state) calls
:meth:`Process.notify`, which is exactly the paper's implicit model:
local predicates change only when local state changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Coroutine

from ..errors import ConfigurationError
from ..net.messages import Message
from ..sim.futures import Future
from ..sim.sync import ConditionVar
from ..sim.tasks import Task

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.loop import Simulator

__all__ = ["Process"]

HandlerFn = Callable[[Message], None]


class Process:
    """A correct process attached to the network.

    Protocol objects (reliable broadcast, adopt-commit, ...) bind to a
    process and register message handlers; the network calls the
    matching handler for each delivered message straight from the
    process's handler table, and the handler (unless registered as
    non-waking) then rechecks every pending ``wait_until`` predicate.
    """

    def __init__(self, pid: int, sim: "Simulator", network: "Network") -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self._handlers: dict[str, HandlerFn] = {}
        self._cond = ConditionVar(name=f"p{pid}")
        self._tasks: list[Task] = []
        # The network dispatches deliveries straight from this table.
        network.register_process(pid, self._handlers)

    # ------------------------------------------------------------------
    # Handler registration and dispatch
    # ------------------------------------------------------------------
    def register_handler(
        self, tag: str, handler: HandlerFn, wakes: bool = True
    ) -> None:
        """Register the ``when <tag> ... do`` handler for a message tag.

        A waking handler (the default) is followed by a recheck of every
        pending ``wait`` predicate.  ``wakes=False`` takes the recheck
        off the per-message path; such a handler must call
        :meth:`notify` itself whenever it changes state a predicate can
        read (reliable broadcast does: on delivery, and only then).
        """
        if tag in self._handlers:
            raise ConfigurationError(
                f"process {self.pid}: handler for tag {tag!r} registered twice"
            )
        self._handlers[tag] = self._waking(handler) if wakes else handler

    def _waking(self, handler: HandlerFn) -> HandlerFn:
        recheck = self._cond.recheck

        def handle_then_wake(message: Message) -> None:
            handler(message)
            # State may have changed: wake any satisfied ``wait`` lines.
            recheck()

        return handle_then_wake

    @property
    def delivered_count(self) -> int:
        """Messages delivered to this process so far."""
        return self.network.delivered_by_dest[self.pid]

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------
    def wait_until(self, predicate: Callable[[], Any]) -> Future:
        """Await a local predicate (the paper's ``wait (...)`` statement).

        Resolves with the predicate's truthy return value, so quorum
        predicates can hand back the witnessing message set.
        """
        return self._cond.wait_until(predicate)

    def notify(self) -> None:
        """Recheck pending predicates after a state change.

        Must be called by timer callbacks, non-waking handlers and any
        other event that mutates state a predicate reads outside a
        waking message handler.
        """
        self._cond.recheck()

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(self, dst: int, tag: str, payload: Any) -> None:
        """Point-to-point send (paper's ``send TAG(m) to p_j``)."""
        self.network.send(self.pid, dst, tag, payload)

    def broadcast(self, tag: str, payload: Any) -> None:
        """Best-effort broadcast: the same message to every process."""
        self.network.broadcast(self.pid, tag, payload)

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def create_task(self, coro: Coroutine[Any, Any, Any], name: str = "") -> Task:
        """Run a protocol coroutine on behalf of this process."""
        task = self.sim.create_task(coro, name=name or f"p{self.pid}")
        self._tasks.append(task)
        return task

    def cancel_tasks(self) -> None:
        """Cancel all coroutines started via :meth:`create_task`."""
        for task in self._tasks:
            if not task.done():
                task.cancel()

    def __repr__(self) -> str:
        return f"Process(pid={self.pid})"
