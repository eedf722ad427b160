"""Execute one schedule-driven run with per-event invariant checks.

:func:`execute_run` is the single execution primitive the explorer, the
minimizer and the sharding prober all share: build the check-mode
runtime (:func:`repro.orchestration.runner.build_runtime` with a
chooser), step the simulator manually, and verify
:func:`repro.analysis.invariants.verify_consensus_run` after *every*
event so a violation is caught at the exact step it appears — the
recorded choice trail up to that step is the raw counterexample.  The
one exception is ground the explorer's own chooser vouches for
(``verified_steps``): the prefix a DFS sibling retraces was run and
verified, step for step, by the execution that passed its branch point
earlier in the same search, so re-verifying it can find nothing new.

Choosers abort an execution mid-run by raising :class:`RunAbort` from
``choose()``; the abort propagates out of ``sim.step()`` *before* any
candidate is dequeued, so the aborted run simply stops — no state was
corrupted, and the kernel is discarded with the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.invariants import Violation, verify_consensus_run
from ..orchestration.runner import RuntimeFrame, build_runtime
from .choice import ScheduleDivergence

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.config import RunConfig
    from ..orchestration.kernel import KernelContext

__all__ = ["RunAbort", "RunOutcome", "execute_run"]

#: Per-run step ceiling: a small-model check run takes a few hundred
#: events; anything near this bound is a livelock, not a schedule.
DEFAULT_MAX_STEPS = 50_000


class RunAbort(Exception):
    """Control-flow abort raised by a chooser: stop this execution.

    ``status`` becomes the run's outcome status: ``"deduped"`` (state
    already explored), ``"pruned"`` (every candidate slept),
    ``"depth"`` / ``"budget"`` (an exploration budget tripped),
    ``"probe"`` (the sharding prober has what it came for).
    """

    def __init__(self, status: str) -> None:
        super().__init__(status)
        self.status = status


@dataclass
class RunOutcome:
    """Everything the explorer needs from one finished execution."""

    #: ``complete`` (all decided) / ``quiescent`` (queue drained with
    #: undecided processes — a liveness gap, not a safety violation) /
    #: ``violation`` / ``steps`` (per-run ceiling) / ``divergence``
    #: (schedule did not fit the model) / any :class:`RunAbort` status.
    status: str
    #: The invariant violations of the violating step (empty otherwise).
    violations: tuple[Violation, ...] = ()
    #: Choice indices actually taken, in order, up to the final event.
    trail: tuple[int, ...] = ()
    steps: int = 0
    decisions: dict[int, Any] = field(default_factory=dict)
    finished_at: float = 0.0
    #: Explorable branch indices recorded by a probing chooser (sharding).
    probed: tuple[int, ...] | None = None


def _current_decisions(frame: RuntimeFrame) -> dict[int, Any]:
    return {
        pid: consensus.decision.result()
        for pid, consensus in frame.consensi.items()
        if consensus.decision.done() and not consensus.decision.cancelled()
    }


def _progress_token(frame: RuntimeFrame) -> tuple[int, int, int, int]:
    """Cheap monotone summary of everything the invariant checks read.

    The five checks are pure functions of the decisions, the adopt-commit
    histories, the RB delivery maps and the ``CB[0]`` valid sets — all
    append-only, so re-verifying is pointless while this token is
    unchanged (most simulator steps move only kernel state).
    """
    decided = 0
    history = 0
    valid = 0
    for consensus in frame.consensi.values():
        if consensus.decision.done():
            decided += 1
        history += len(consensus.est_history)
        valid += len(consensus.cb0._valid_order)
    delivered = sum(len(rb.delivered) for rb in frame.rb_engines.values())
    return (decided, history, valid, delivered)


def execute_run(
    config: "RunConfig",
    chooser: Any,
    context: "KernelContext | None" = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunOutcome:
    """Run ``config`` under ``chooser`` to termination, abort or violation."""
    frame = build_runtime(config, context=context, chooser=chooser)
    try:
        return _drive(config, chooser, frame, max_steps)
    finally:
        # An aborted execution leaves tasks that never ran a single step.
        frame.sim._close_unstarted_tasks()


def _drive(
    config: "RunConfig",
    chooser: Any,
    frame: RuntimeFrame,
    max_steps: int,
) -> RunOutcome:
    attach = getattr(chooser, "attach", None)
    if attach is not None:
        attach(frame)
    sim = frame.sim
    allow_bot = config.variant == "bot"
    # Leading steps the chooser vouches for: ground an earlier execution
    # of the same search already ran and verified.  Only the two
    # invariant reads below are skipped there; a chooser that does not
    # say so is verified from its first step.
    verified = getattr(chooser, "verified_steps", 0)
    steps = 0
    status = "complete"
    violations: tuple[Violation, ...] = ()
    probed: tuple[int, ...] | None = None
    token = _progress_token(frame)
    while True:
        if frame.all_decided.done():
            status = "complete"
            break
        if sim.peek_time() is None:
            status = "quiescent"
            break
        if steps >= max_steps:
            status = "steps"
            break
        try:
            sim.step()
        except RunAbort as abort:
            status = abort.status
            probed = getattr(chooser, "probed", None)
            break
        except ScheduleDivergence:
            status = "divergence"
            break
        steps += 1
        if steps < verified:
            continue
        fresh = _progress_token(frame)
        if fresh == token:
            continue
        token = fresh
        if steps == verified:
            # The state new ground starts from: verified when it was
            # first reached, the baseline for what follows.
            continue
        report = verify_consensus_run(
            _current_decisions(frame),
            config.proposals,
            consensi=frame.consensi,
            rb_engines=frame.rb_engines,
            allow_bot=allow_bot,
        )
        if not report.ok:
            status = "violation"
            violations = tuple(report.violations)
            break
    return RunOutcome(
        status=status,
        violations=violations,
        trail=tuple(getattr(chooser, "trail", ())),
        steps=steps,
        decisions=_current_decisions(frame),
        finished_at=sim.now,
        probed=probed,
    )
