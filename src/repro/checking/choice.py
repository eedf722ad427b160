"""Choice-point identification and schedule replay.

A *choice point* is a ready-tier event whose order against its siblings
is genuinely nondeterministic in the modelled system: the delivery of a
message between two distinct processes.  Everything else on the ready
tier — task steps, callbacks, and self-deliveries — runs eagerly in FIFO
order, because in the sampled system same-instant cascades always drain
before any positive-delay delivery (the virtual self channel's ``1e-9``
delta beats every cross-process delay floor).

A *schedule* is the tuple of candidate indices chosen at successive
**branching** choice points — a lone candidate is a forced move and
consumes no index, so schedules name only real decisions.  Candidates
are presented in ready-tier (scheduling) order, which is itself a pure
function of the choices made so far, so a schedule identifies one
execution exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .fingerprint import canon

if TYPE_CHECKING:  # pragma: no cover
    from ..net.network import Network
    from ..sim.handles import EventHandle

__all__ = ["MessageKey", "ScheduleChooser", "ScheduleDivergence", "message_key"]

#: Semantic identity of a pending delivery: ``(sender, dest, tag,
#: canonical payload)``.  Stable across executions (unlike kernel uids),
#: so sleep sets keyed by it compare across DFS branches.
MessageKey = tuple


class ScheduleDivergence(SimulationError):
    """A replayed schedule index is not an enabled delivery.

    Raised when a schedule recorded against one model is replayed
    against a different one (wrong config, mutated protocol, stale
    counterexample) — the choice tree no longer has the recorded shape.
    """


def message_key(message: Any) -> MessageKey:
    """The semantic identity of one pending delivery."""
    return (message.sender, message.dest, message.tag, canon(message.payload))


class BaseChooser:
    """Shared choice-point detection for choosers."""

    _deliver_cb: Any = None

    def __init__(self) -> None:
        self.frame: Any = None
        #: Whether the model's channels are FIFO: only per-channel head
        #: deliveries are enabled transitions then.
        self.fifo: bool = False

    def attach(self, frame: Any) -> None:
        """Receive the runtime frame the harness built for this run."""
        self.frame = frame

    @property
    def tasks(self) -> list[Any]:
        """The attached run's tasks, in creation order (fingerprint input)."""
        return self.frame.sim._tasks

    def bind(self, network: "Network") -> None:
        """Anchor choice detection to ``network``'s delivery callback."""
        self._deliver_cb = network._deliver_cb
        self.fifo = bool(getattr(network, "_fifo", False))

    def channel_heads(self, candidates: list["EventHandle"]) -> list[int]:
        """Indices of the *enabled* candidate deliveries.

        Without FIFO every pending delivery may go next.  With FIFO only
        the oldest pending message of each ``(sender, dest)`` channel is
        enabled — candidates sit in the ready deque in send order, so
        the first occurrence per channel is that channel's head.
        """
        if not self.fifo:
            return list(range(len(candidates)))
        heads: list[int] = []
        seen: set[tuple[int, int]] = set()
        for index, handle in enumerate(candidates):
            message = handle._args[0]
            channel = (message.sender, message.dest)
            if channel in seen:
                continue
            seen.add(channel)
            heads.append(index)
        return heads

    def is_choice(self, handle: "EventHandle") -> bool:
        """Whether a ready handle is a cross-process message delivery."""
        if handle._callback is not self._deliver_cb:
            return False
        message = handle._args[0]
        return message.sender != message.dest

    @staticmethod
    def replayed(
        index: int, position: int, heads: list[int], candidates: list[Any]
    ) -> int:
        """``index`` as recorded for branching point ``position``, checked
        against the model being replayed: it must name an *enabled*
        delivery.  Under FIFO a candidate behind its channel's head is
        in range but not enabled — delivering it would run an execution
        the model does not contain."""
        if index not in heads:
            raise ScheduleDivergence(
                f"schedule index {index} is not an enabled delivery at "
                f"choice point {position} ({len(candidates)} candidates, "
                f"enabled {heads}) — the schedule was recorded against a "
                f"different model"
            )
        return index


class ScheduleChooser(BaseChooser):
    """Replay a recorded schedule, then continue first-candidate.

    The continuation rule matters: a checker counterexample ends at the
    violating event, and the remainder of the run (the ordinary runner
    verifies invariants post-hoc) must be deterministic — index 0 at
    every further choice point is the canonical continuation both the
    explorer's default descent and minimization replays use.
    """

    def __init__(self, schedule: tuple[int, ...]) -> None:
        super().__init__()
        self.schedule = tuple(int(c) for c in schedule)
        self.position = 0
        #: Every choice actually taken, forced and default alike.
        self.trail: list[int] = []

    def choose(self, candidates: list["EventHandle"]) -> int:
        heads = self.channel_heads(candidates)
        if len(heads) == 1:
            # Forced move: no index consumed, none recorded.  Schedules
            # stay short and survive model edits that only change the
            # length of forced corridors between branch points.
            return heads[0]
        if self.position < len(self.schedule):
            index = self.replayed(
                self.schedule[self.position], self.position, heads, candidates
            )
            self.position += 1
        else:
            index = heads[0]
        self.trail.append(index)
        return index
