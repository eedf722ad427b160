"""The verify-every-step execution harness — the differential-test oracle.

This is ``repro.checking.harness._drive`` (and the ``execute_run``
around it) as it stood before the explorer's chooser could vouch for
ground an earlier execution of the same search had verified: a
``_progress_token`` after every simulator step, a
``verify_consensus_run`` whenever it moved, retraced prefix or not.  It
is kept only as the reference ``test_harness_differential.py`` runs
whole explorations against, journal entry for journal entry; nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.invariants import Violation, verify_consensus_run
from repro.checking.choice import ScheduleDivergence
from repro.checking.harness import (
    DEFAULT_MAX_STEPS,
    RunAbort,
    RunOutcome,
    _current_decisions,
    _progress_token,
)
from repro.orchestration.runner import RuntimeFrame, build_runtime

__all__ = ["execute_run"]


def execute_run(
    config: Any,
    chooser: Any,
    context: Any = None,
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
    config: Any,
    chooser: Any,
    frame: RuntimeFrame,
    max_steps: int,
) -> RunOutcome:
    attach = getattr(chooser, "attach", None)
    if attach is not None:
        attach(frame)
    sim = frame.sim
    allow_bot = config.variant == "bot"
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
        fresh = _progress_token(frame)
        if fresh == token:
            continue
        token = fresh
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
