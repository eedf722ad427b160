"""Seeded protocol mutants — deliberately broken variants for checker tests.

Each mutant removes one safety-critical guard from a protocol layer and
pairs it with a small trigger scenario in which the checker must find an
invariant violation.  They exist to validate the *checker* (it finds
real bugs and shrinks them to minimal schedules), not the protocol:
nothing here is importable from the protocol packages, and the patches
are installed only inside the :func:`apply_mutant` context manager.

The three mutants break three different layers:

* ``decide-any-support`` — Figure 4 line 9 requires ``t + 1`` distinct
  DECIDE origins (at least one correct).  The mutant decides on the
  first DECIDE, so a single forged broadcast (``spam_decide``) makes a
  correct process decide a value nobody proposed → **validity**.
* ``rb-echo-deliver`` — Bracha RB delivers on ``2t + 1`` READYs.  The
  mutant delivers on the *first* ECHO, so an equivocating origin
  (``two_faced``) splits correct processes between its two faces →
  **rb-consistency**.
* ``cb-valid-any`` — Figure 1 line 4 admits a value into ``cb_valid``
  only on ``t + 1`` distinct origins (at least one correct).  The
  mutant admits on the *first* origin, so a lone Byzantine proposer
  (``collude``) pushes a value nobody correct proposed into every
  correct ``cb_valid`` → **cb-set-validity**.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..adversary.strategies import collude, spam_decide, two_faced
from ..broadcast.cooperative import CooperativeBroadcast
from ..broadcast.reliable import ReliableBroadcast
from ..core.consensus import Consensus
from ..orchestration.config import RunConfig

__all__ = ["MUTANTS", "Mutant", "apply_mutant"]


@dataclass(frozen=True)
class Mutant:
    """One seeded bug plus the scenario that exposes it."""

    name: str
    description: str
    #: Invariant check names the violation may carry; the checker's
    #: finding must intersect this set.
    expected_checks: frozenset[str]
    #: Installs the patch; restores on exit.
    patch: Callable[[], Any]
    #: Builds the trigger scenario (fresh config per call).
    scenario: Callable[[], RunConfig]
    #: Explorer budget hints for tests / CLI (kept small: the violation
    #: is shallow by construction).
    budgets: dict[str, int] = field(default_factory=dict)


@contextmanager
def _patched(cls: type, attribute: str, replacement: Any) -> Iterator[None]:
    original = cls.__dict__[attribute]
    setattr(cls, attribute, replacement)
    try:
        yield
    finally:
        setattr(cls, attribute, original)


# ----------------------------------------------------------------------
# decide-any-support
# ----------------------------------------------------------------------
def _on_decide_any(self: Consensus, origin: int, instance_key: Any, value: Any) -> None:
    supporters = self._decide_support.setdefault(value, set())
    supporters.add(origin)
    # BUG: threshold t+1 dropped — one forged DECIDE now decides.
    if not self.decision.done():
        self.decision.set_result(value)


def _decide_any_patch() -> Any:
    return _patched(Consensus, "_on_decide", _on_decide_any)


def _decide_any_scenario() -> RunConfig:
    return RunConfig(
        n=4,
        t=1,
        proposals={1: "a", 2: "a", 3: "a"},
        adversaries={4: spam_decide("evil")},
        max_rounds=3,
    )


# ----------------------------------------------------------------------
# rb-echo-deliver
# ----------------------------------------------------------------------
_real_on_echo = ReliableBroadcast._on_echo


def _on_echo_deliver(self: ReliableBroadcast, message: Any) -> None:
    _real_on_echo(self, message)
    origin, instance_key, value = message.payload
    # BUG: deliver on the first echo, skipping the READY phase entirely.
    if (origin, instance_key) not in self.delivered:
        self._deliver(origin, instance_key, value)


def _rb_echo_patch() -> Any:
    return _patched(ReliableBroadcast, "_on_echo", _on_echo_deliver)


def _rb_echo_scenario() -> RunConfig:
    return RunConfig(
        n=4,
        t=1,
        proposals={1: "a", 2: "a", 3: "a"},
        adversaries={4: two_faced("z", proposal="a")},
        max_rounds=3,
    )


# ----------------------------------------------------------------------
# cb-valid-any
# ----------------------------------------------------------------------
def _on_rb_deliver_any(
    self: CooperativeBroadcast, origin: int, instance_key: Any, value: Any
) -> None:
    supporters = self._support.setdefault(value, set())
    supporters.add(origin)
    # BUG: threshold t+1 dropped — one (possibly Byzantine) origin now
    # vouches a value into cb_valid.
    if value not in self._valid_set:
        self._add_valid(value)
    self._after_delivery()


def _cb_valid_patch() -> Any:
    return _patched(CooperativeBroadcast, "_on_rb_deliver", _on_rb_deliver_any)


def _cb_valid_scenario() -> RunConfig:
    # collude runs the protocol honestly but proposes 'evil': its CB_VAL
    # RB-delivers everywhere with support {4} — below t + 1, so the real
    # protocol keeps it out of cb_valid.
    return RunConfig(
        n=4,
        t=1,
        proposals={1: "a", 2: "a", 3: "a"},
        adversaries={4: collude("evil")},
        max_rounds=3,
    )


MUTANTS: dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="decide-any-support",
            description="decide on a single DECIDE origin instead of t+1",
            expected_checks=frozenset({"validity"}),
            patch=_decide_any_patch,
            scenario=_decide_any_scenario,
            budgets={"max_executions": 2000, "max_depth": 400},
        ),
        Mutant(
            name="rb-echo-deliver",
            description="RB-deliver on the first echo, skipping READYs",
            expected_checks=frozenset({"rb-consistency"}),
            patch=_rb_echo_patch,
            scenario=_rb_echo_scenario,
            budgets={"max_executions": 2000, "max_depth": 400},
        ),
        Mutant(
            name="cb-valid-any",
            description="cb_valid admits a value on a single origin",
            expected_checks=frozenset({"cb-set-validity"}),
            patch=_cb_valid_patch,
            scenario=_cb_valid_scenario,
            budgets={"max_executions": 2000, "max_depth": 400},
        ),
    )
}


@contextmanager
def apply_mutant(name: str) -> Iterator[Mutant]:
    """Install mutant ``name``'s patch for the duration of the block."""
    mutant = MUTANTS.get(name)
    if mutant is None:
        raise KeyError(
            f"unknown mutant {name!r}; available: {sorted(MUTANTS)}"
        )
    with mutant.patch():
        yield mutant
