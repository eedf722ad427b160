"""Eventual agreement (EA) — paper Section 5, Figure 3.

The EA object carries the *liveness* of consensus.  Per round it offers
``EA_propose(r, v)`` with three properties:

* EA-Termination: if all correct processes invoke at round ``r``, all
  invocations terminate;
* EA-Validity (deliberately weak): if all correct processes propose the
  same ``v`` at round ``r``, nothing else is returned at ``r``;
* EA-Eventual agreement: over infinitely many rounds there are infinitely
  many at which all correct processes return one common value that some
  correct process proposed — *provided* the system contains an eventual
  ``<t+1+k>bisource``.

Round machinery (Section 5.2): ``coord(r)`` rotates over all processes;
``F(r)`` rotates over all witness sets (size ``n - t + k``).  The round-
``r`` coordinator champions the first value it receives from an ``F(r)``
member; processes relay the championed value, or ⊥ if their round timer
(set to ``timeout_fn(r)``, an increasing function) expires first.  In a
round whose coordinator is the bisource, whose witness set contains the
bisource's timely output set, and whose timeout exceeds ``2 * delta``,
every correct process returns the championed value (Lemma 3).

Two documented deviations from the literal pseudocode (docs/claims.md,
Deviations 1 and 2):

1. the round timer is armed *before* the early return of line 4 (else a
   line-4 returner never relays and EA-Termination can fail — reproduced
   by ``strict_paper_timers=True`` in the regression test);
2. with ``k > 0`` the line-7 witness rule requires ``k + 1`` matching
   non-⊥ relays from ``F(r)`` members (with exactly ``t`` faults every
   size-``n-t+k`` witness set contains at least ``k`` Byzantine members,
   so the paper's 1-witness rule is only sound for ``k = 0``).
"""

from __future__ import annotations

from typing import Any, Callable

from ..analysis.feasibility import check_feasibility
from ..broadcast.cooperative import CooperativeBroadcast
from ..broadcast.reliable import ReliableBroadcast
from ..errors import ConfigurationError
from ..net.messages import Message
from ..runtime.process import Process
from ..runtime.timers import RoundTimer
from .coord import coordinator, f_set
from .values import BOT, Selector, first_added

__all__ = ["EventualAgreement", "default_timeout"]


def default_timeout(r: int) -> float:
    """The paper's timeout schedule: round ``r`` waits ``r`` time units.

    Any increasing function works (footnote 3); what matters is that the
    timeout eventually exceeds ``2 * delta``.
    """
    return float(r)


class _RoundState:
    """Per-round local state of the EA object."""

    __slots__ = (
        "cb",
        "prop2",
        "relays",
        "coord_seen",
        "coord_value",
        "coord_sent",
        "relay_sent",
        "timer",
        "returned",
        "f_members",
    )

    def __init__(self, cb: CooperativeBroadcast, timer: RoundTimer,
                 f_members: frozenset[int]) -> None:
        self.cb = cb
        self.prop2: dict[int, Any] = {}  # first EA_PROP2 per sender
        self.relays: dict[int, Any] = {}  # first EA_RELAY per sender
        self.coord_seen = False
        self.coord_value: Any = None
        self.coord_sent = False  # am I the coordinator and did I champion?
        self.relay_sent = False
        self.timer = timer
        self.returned: Any = None
        self.f_members = f_members


class EventualAgreement:
    """An m-valued EA object bound to one process (Figure 3).

    Args:
        process: Owning process.
        rb: Reliable-broadcast engine (used by the per-round CB instances).
        n, t: System parameters, ``t < n/3``.
        m: Bound on distinct correct proposals per round; ``None`` skips
            the feasibility check (⊥-variant).
        k: Section 5.4 tuning parameter, ``0 <= k <= t``.  Requires a
            ``<t+1+k>bisource``; witness sets have size ``n - t + k`` and
            the worst-case convergence horizon drops to ``C(n, n-t+k)*n``
            rounds.  ``k = 0`` is the base algorithm.
        timeout_fn: Increasing round-timeout schedule (default: ``r``).
        cb_factory: CB class for the per-round instances.
        selector: Deterministic "any value in cb_valid" choice.
        strict_paper_timers: Reproduce the literal line order of Figure 3
            (timer armed only at line 5).  Only for the liveness
            counterexample test; do not use otherwise.
        namespace: Distinguishes coexisting EA objects on one process
            (e.g. one per state-machine-replication slot); all correct
            processes must use equal namespaces for the same object.
    """

    PROP2 = "EA_PROP2"
    COORD = "EA_COORD"
    RELAY = "EA_RELAY"

    def __init__(
        self,
        process: Process,
        rb: ReliableBroadcast,
        n: int,
        t: int,
        m: int | None,
        k: int = 0,
        timeout_fn: Callable[[int], float] = default_timeout,
        cb_factory: type[CooperativeBroadcast] = CooperativeBroadcast,
        selector: Selector = first_added,
        strict_paper_timers: bool = False,
        namespace: str = "",
    ) -> None:
        if not n > 3 * t:
            raise ConfigurationError(f"EA requires n > 3t, got n={n}, t={t}")
        if not 0 <= k <= t:
            raise ConfigurationError(f"k must be in 0..t, got k={k}")
        if m is not None:
            check_feasibility(n, t, m)
        self.process = process
        self.rb = rb
        self.n = n
        self.t = t
        self.k = k
        self.f_size = n - t + k
        self.witness_threshold = k + 1
        self.timeout_fn = timeout_fn
        self.cb_factory = cb_factory
        self.selector = selector
        self.strict_paper_timers = strict_paper_timers
        self.namespace = namespace
        if namespace:
            suffix = f":{namespace}"
            self.PROP2 = self.PROP2 + suffix
            self.COORD = self.COORD + suffix
            self.RELAY = self.RELAY + suffix
        self._rounds: dict[int, _RoundState] = {}
        #: Highest round this process proposed in.
        self.last_proposed_round = 0
        process.register_handler(self.PROP2, self._on_prop2)
        process.register_handler(self.COORD, self._on_coord)
        process.register_handler(self.RELAY, self._on_relay)

    # ------------------------------------------------------------------
    # Round state
    # ------------------------------------------------------------------
    def _round(self, r: int) -> _RoundState:
        state = self._rounds.get(r)
        if state is None:
            cb = self.cb_factory(
                self.process,
                self.rb,
                self.n,
                self.t,
                instance=("EA", self.namespace, r),
                selector=self.selector,
            )
            timer = RoundTimer(self.process.sim, on_expire=None)
            members = f_set(r, self.n, self.t, self.k)
            state = _RoundState(cb, timer, members)
            # Bind the expiry action now that the state exists.
            timer._on_expire = lambda: self._on_timer_expired(state, r)
            self._rounds[r] = state
        return state

    def round_returned(self, r: int) -> Any:
        """Value this process returned at round ``r`` (None if still open)."""
        state = self._rounds.get(r)
        return state.returned if state is not None else None

    def round_diagnostics(self, r: int) -> dict[str, Any] | None:
        """A read-only snapshot of the local round-``r`` state.

        Intended for debugging and tracing: which EA_PROP2/EA_RELAY
        messages were recorded, whether the coordinator's champion
        arrived, and what the round timer did.  Returns None for rounds
        this process has no state for.
        """
        state = self._rounds.get(r)
        if state is None:
            return None
        timer = state.timer
        if timer.expired:
            timer_state = "expired"
        elif timer.disabled:
            timer_state = "disabled"
        elif timer.running:
            timer_state = "running"
        else:
            timer_state = "unset"
        return {
            "round": r,
            "coordinator": coordinator(r, self.n),
            "f_members": sorted(state.f_members),
            "prop2": dict(state.prop2),
            "relays": dict(state.relays),
            "coord_seen": state.coord_seen,
            "coord_value": state.coord_value,
            "relay_sent": state.relay_sent,
            "timer": timer_state,
            "returned": state.returned,
        }

    # ------------------------------------------------------------------
    # Operation: EA_propose (Figure 3 lines 1-10)
    # ------------------------------------------------------------------
    async def propose(self, r: int, value: Any) -> Any:
        """ea-propose ``value`` at round ``r``; returns the round's value.

        Correct usage (assumed by the paper): one invocation per round,
        consecutive round numbers.
        """
        if r != self.last_proposed_round + 1:
            raise ConfigurationError(
                f"EA rounds must be consecutive: expected "
                f"{self.last_proposed_round + 1}, got {r}"
            )
        self.last_proposed_round = r
        state = self._round(r)
        aux = await state.cb.cb_broadcast(value)  # line 1
        self.process.broadcast(self.PROP2, (r, aux))  # line 2
        witness = await self.process.wait_until(  # line 3
            lambda: self._prop2_quorum(state)
        )
        if not self.strict_paper_timers:
            # Deviation 1: arm before the early return so this process
            # relays in every round (EA-Termination).
            state.timer.set(self.timeout_fn(r))  # line 5 (hoisted)
        values = set(witness.values())
        if len(values) == 1:  # line 4
            state.returned = next(iter(values))
            return state.returned
        if self.strict_paper_timers:
            state.timer.set(self.timeout_fn(r))  # line 5 (literal position)
        await self.process.wait_until(  # line 6
            lambda: len(state.relays) >= self.n - self.t or None
        )
        championed = self._relay_witness_value(state)  # line 7
        if championed is not None:
            state.returned = championed  # line 8
        else:
            state.returned = value  # line 9
        return state.returned

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _prop2_quorum(self, state: _RoundState) -> dict[int, Any] | None:
        """Line 3: ``n - t`` EA_PROP2 whose aux values are in ``cb_valid``."""
        qualifying: dict[int, Any] = {}
        for sender, value in state.prop2.items():
            if state.cb.in_valid(value):
                qualifying[sender] = value
                if len(qualifying) == self.n - self.t:
                    return dict(qualifying)
        return None

    def _relay_witness_value(self, state: _RoundState) -> Any | None:
        """Line 7 (+ deviation 2): first value with ``k + 1`` matching
        non-⊥ relays from ``F(r)`` members, scanning arrival order."""
        counts: dict[Any, int] = {}
        for sender, value in state.relays.items():
            if sender in state.f_members and value is not BOT:
                counts[value] = counts.get(value, 0) + 1
                if counts[value] >= self.witness_threshold:
                    return value
        return None

    # ------------------------------------------------------------------
    # Handlers (Figure 3 lines 11-19)
    # ------------------------------------------------------------------
    def _on_prop2(self, message: Message) -> None:
        if not _valid_round_payload(message.payload):
            return
        r, value = message.payload
        state = self._round(r)
        if message.sender in state.prop2:
            return
        state.prop2[message.sender] = value
        # Lines 11-14: the round coordinator champions the first value it
        # receives from a member of F(r).
        if (
            self.process.pid == coordinator(r, self.n)
            and not state.coord_sent
            and message.sender in state.f_members
        ):
            state.coord_sent = True
            self.process.broadcast(self.COORD, (r, value))  # line 13

    def _on_coord(self, message: Message) -> None:
        if not _valid_round_payload(message.payload):
            return
        r, value = message.payload
        if message.sender != coordinator(r, self.n):
            return  # only the round coordinator may champion
        state = self._round(r)
        if state.coord_seen:
            return
        state.coord_seen = True
        state.coord_value = value
        # Lines 15-19, triggered by EA_COORD reception.
        if state.relay_sent:
            return
        state.relay_sent = True
        state.timer.disable()  # line 16
        v_coord = BOT if state.timer.expired else value  # line 17
        self.process.broadcast(self.RELAY, (r, v_coord))  # line 18

    def _on_timer_expired(self, state: _RoundState, r: int) -> None:
        # Lines 15-19, triggered by timer expiry.
        if state.relay_sent:
            return
        state.relay_sent = True
        self.process.broadcast(self.RELAY, (r, BOT))  # line 18 with ⊥
        self.process.notify()

    def _on_relay(self, message: Message) -> None:
        if not _valid_relay_payload(message.payload):
            return
        r, value = message.payload
        state = self._round(r)
        if message.sender in state.relays:
            return
        state.relays[message.sender] = value


def _valid_round_payload(payload: Any) -> bool:
    """Shield handlers from malformed Byzantine payloads."""
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], int)
        and payload[0] >= 1
    )


def _valid_relay_payload(payload: Any) -> bool:
    return _valid_round_payload(payload)
