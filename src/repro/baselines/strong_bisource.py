"""Baseline EA requiring the *stronger* pre-2015 synchrony assumption.

Aguilera et al. (DSN 2006, the paper's reference [1]) solve signature-free
Byzantine consensus assuming an eventual ``<n - t>bisource`` — a correct
process with eventually timely channels to and from essentially *all*
correct processes.  The headline of the reproduced paper is that a
``<t+1>bisource`` suffices.

To exhibit the separation on our substrate we use a *structural ablation*
of Figure 3 rather than a reimplementation of [1]: the witness-set
machinery (the ``F(r)`` sets, whose rotation is exactly what converts
``t`` timely output channels into eventual convergence) is removed, and a
round converges only when a process collects ``t + 1`` matching non-⊥
relays from *anywhere*.

* With an ``<n - t>source`` coordinator (timely output channels to all
  correct processes), every correct process relays the championed value,
  so any ``n - t`` relays contain at least ``n - 2t >= t + 1`` matching
  non-⊥ entries and the round converges — the assumption of [1] is
  enough, as expected.
* Under the *minimal* ``<t+1>bisource`` topology only the ``t + 1``
  members of ``X+`` are guaranteed a timely EA_COORD; a quorum of
  ``n - t`` relays is only guaranteed to contain **one** of them, so
  convergence is not guaranteed — benchmark E8 measures exactly this
  failure.

Safety is unaffected: ``t + 1`` matching relays include one from a
correct process, so the returned value was championed by the round
coordinator, and the consensus layer's validity filter (Figure 4, line 5)
still applies.
"""

from __future__ import annotations

from typing import Any

from ..core.eventual_agreement import EventualAgreement, _RoundState
from ..core.values import BOT

__all__ = ["StrongBisourceEA"]


class StrongBisourceEA(EventualAgreement):
    """Figure 3 without witness sets: needs an ``<n-t>source`` coordinator."""

    def _round(self, r: int) -> _RoundState:
        state = super()._round(r)
        if len(state.f_members) != self.n:
            # No F(r) gating: the coordinator champions the first
            # EA_PROP2 from anyone, and every relay counts at line 7.
            state.f_members = frozenset(range(1, self.n + 1))
        return state

    def _relay_witness_value(self, state: _RoundState) -> Any | None:
        """Accept a value only with ``t + 1`` matching non-⊥ relays."""
        counts: dict[Any, int] = {}
        for sender, value in state.relays.items():
            if value is not BOT:
                counts[value] = counts.get(value, 0) + 1
                if counts[value] >= self.t + 1:
                    return value
        return None
