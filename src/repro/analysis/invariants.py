"""Machine-checkable protocol properties, re-verified after every run.

The paper's theorems are universally quantified over schedules; a
simulation cannot prove them, but it can *falsify* them cheaply.  These
checkers inspect the final state of the correct processes' protocol
objects and flag any violation of:

* CONS-Agreement / CONS-Validity (Theorem 4);
* AC-Quasi-agreement / AC-Obligation, via the per-round history;
* RB-Unicity consistency across processes (no two correct processes
  RB-delivered different values for one instance);
* CB-Set Validity (``cb_valid`` of a correct process contains only
  correct proposals, plus ⊥ for the Section 7 variant).

Integration tests and benchmarks call :func:`verify_consensus_run` on
every run, so any safety regression in any module surfaces immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.values import BOT
from ..errors import InvariantViolation

__all__ = [
    "Violation",
    "InvariantReport",
    "check_agreement",
    "check_validity",
    "check_rb_consistency",
    "check_cb_validity",
    "check_ac_round_safety",
    "verify_consensus_run",
]


@dataclass(frozen=True)
class Violation:
    """A single falsified property."""

    check: str
    description: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.description}"


@dataclass
class InvariantReport:
    """The outcome of a batch of checks."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no property was falsified."""
        return not self.violations

    def extend(self, violations: list[Violation]) -> None:
        """Accumulate more findings."""
        self.violations.extend(violations)

    def raise_if_failed(self) -> None:
        """Raise :class:`InvariantViolation` listing every finding."""
        if self.violations:
            summary = "; ".join(str(v) for v in self.violations)
            raise InvariantViolation(f"{len(self.violations)} violation(s): {summary}")


def check_agreement(decisions: Mapping[int, Any]) -> list[Violation]:
    """CONS-Agreement: all decided (correct) processes decided equally."""
    distinct: dict[Any, list[int]] = {}
    for pid, value in decisions.items():
        distinct.setdefault(value, []).append(pid)
    if len(distinct) > 1:
        return [
            Violation(
                "agreement",
                f"correct processes decided differently: "
                + ", ".join(f"{v!r} by {pids}" for v, pids in distinct.items()),
            )
        ]
    return []


def check_validity(
    decisions: Mapping[int, Any],
    correct_proposals: Mapping[int, Any],
    allow_bot: bool = False,
) -> list[Violation]:
    """CONS-Validity: each decided value was proposed by a correct process
    (⊥ additionally allowed for the Section 7 variant)."""
    admissible = set(correct_proposals.values())
    violations = []
    for pid, value in decisions.items():
        if value in admissible:
            continue
        if allow_bot and value is BOT:
            continue
        violations.append(
            Violation(
                "validity",
                f"p{pid} decided {value!r}, which no correct process proposed "
                f"(correct proposals: {sorted(map(repr, admissible))})",
            )
        )
    return violations


def check_rb_consistency(rb_engines: Mapping[int, Any]) -> list[Violation]:
    """No two correct processes RB-delivered different values for one
    (origin, instance) — the cross-process face of RB-Unicity/T2."""
    seen: dict[Any, tuple[int, Any]] = {}
    violations = []
    for pid, rb in rb_engines.items():
        for key, value in rb.delivered.items():
            if key not in seen:
                seen[key] = (pid, value)
            else:
                other_pid, other_value = seen[key]
                if other_value != value:
                    violations.append(
                        Violation(
                            "rb-consistency",
                            f"instance {key!r}: p{other_pid} delivered "
                            f"{other_value!r} but p{pid} delivered {value!r}",
                        )
                    )
    return violations


def check_cb_validity(
    cb_instances: Mapping[int, Any],
    correct_proposals: Mapping[int, Any],
    allow_bot: bool = False,
) -> list[Violation]:
    """CB-Set Validity on the initial CB[0]: every value in a correct
    process's ``cb_valid`` was proposed by a correct process."""
    admissible = set(correct_proposals.values())
    violations = []
    for pid, cb in cb_instances.items():
        for value in cb.cb_valid:
            if value in admissible:
                continue
            if allow_bot and value is BOT:
                continue
            violations.append(
                Violation(
                    "cb-set-validity",
                    f"p{pid} holds {value!r} in cb_valid, proposed by no "
                    f"correct process",
                )
            )
    return violations


def check_ac_round_safety(consensi: Mapping[int, Any]) -> list[Violation]:
    """AC-Quasi-agreement via history: if any correct process committed
    ``v`` in round ``r``, every correct outcome at ``r`` carries ``v``."""
    from ..core.adopt_commit import Tag

    per_round: dict[int, list[tuple[int, Any, Any]]] = {}
    for pid, consensus in consensi.items():
        for r, tag, est in consensus.est_history:
            per_round.setdefault(r, []).append((pid, tag, est))
    violations = []
    for r, outcomes in per_round.items():
        committed = {est for _, tag, est in outcomes if tag is Tag.COMMIT}
        if not committed:
            continue
        if len(committed) > 1:
            violations.append(
                Violation(
                    "ac-quasi-agreement",
                    f"round {r}: two different values committed: {committed!r}",
                )
            )
            continue
        (value,) = committed
        for pid, tag, est in outcomes:
            if est != value:
                violations.append(
                    Violation(
                        "ac-quasi-agreement",
                        f"round {r}: p{pid} returned <{tag.value}, {est!r}> "
                        f"while {value!r} was committed",
                    )
                )
    return violations


def verify_consensus_run(
    decisions: Mapping[int, Any],
    correct_proposals: Mapping[int, Any],
    consensi: Mapping[int, Any] | None = None,
    rb_engines: Mapping[int, Any] | None = None,
    allow_bot: bool = False,
) -> InvariantReport:
    """Run every applicable checker; returns the combined report."""
    report = InvariantReport()
    report.extend(check_agreement(decisions))
    report.extend(check_validity(decisions, correct_proposals, allow_bot=allow_bot))
    if rb_engines is not None:
        report.extend(check_rb_consistency(rb_engines))
    if consensi is not None:
        report.extend(check_ac_round_safety(consensi))
        report.extend(
            check_cb_validity(
                {pid: c.cb0 for pid, c in consensi.items()},
                correct_proposals,
                allow_bot=allow_bot,
            )
        )
    return report
