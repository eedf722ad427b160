"""Differential test: the fast-forwarding harness against the
verify-every-step one it replaced (``reference_harness.py``).

A DFS sibling retraces its ``base_trail`` — ground the execution that
passed the branch point ran and verified earlier in the same search —
and ``harness._drive`` skips its two invariant reads there.  That must
be invisible: the same journal run for run, and on *new* ground exactly
the invariant verifications the reference makes.  What nobody verified
is never skipped: a root prefix (another shard's ground), a replay, the
minimizer and the prober are checked from their first step.
"""

import pytest

from repro.checking import (
    MUTANTS, Explorer, ScheduleChooser, apply_mutant, execute_run,
)
from repro.checking import explorer as explorer_module
from repro.checking import harness as harness_module
from repro.checking.sharding import ProbeChooser
from repro.orchestration.config import RunConfig
from tests.checking import reference_harness


def journal_and_verifications(monkeypatch, reference, config, **budgets):
    """One exploration's ``on_execution`` journal plus how often it ran
    ``verify_consensus_run`` on new ground — under the reference
    harness, or under the real one (where *every* call has to be)."""
    module = reference_harness if reference else harness_module
    running = []
    verifications = [0]
    real_verify = module.verify_consensus_run
    real_run = module.execute_run

    def verify(*args, **kwargs):
        chooser = running[-1]
        stepped = chooser.frame.sim.events_processed
        if stepped > getattr(chooser, "verified_steps", 0):
            verifications[0] += 1
        else:
            assert reference  # the real harness never verifies a retrace
        return real_verify(*args, **kwargs)

    def run(config, chooser, **kwargs):
        running.append(chooser)
        return real_run(config, chooser, **kwargs)

    monkeypatch.setattr(module, "verify_consensus_run", verify)
    monkeypatch.setattr(explorer_module, "execute_run", run)
    journal = []
    result = Explorer(
        config,
        on_execution=lambda prefix, outcome: journal.append((
            prefix, outcome.status, outcome.steps, outcome.trail,
            outcome.decisions, outcome.finished_at,
            tuple(str(v) for v in outcome.violations),
        )),
        **budgets,
    ).run()
    monkeypatch.undo()
    summary = (
        result.verdict, result.exhausted, result.stats.as_dict(),
        result.counterexample, result.raw_counterexample, result.violations,
        result.fingerprints, result.minimize_replays,
    )
    return journal, summary, verifications[0], result


def fifo(n, *values):
    return RunConfig(
        n=n, t=0, proposals=dict(enumerate(values, start=1)), max_rounds=1,
        fifo=True,
    )


@pytest.mark.parametrize("config, budgets, executions", [
    (fifo(2, "a", "a"), {}, 90),
    (fifo(2, "a", "b"), {}, 82),
    (fifo(3, "a", "a", "a"), {"max_executions": 300}, 300),
])
def test_journal_and_new_ground_verifications_are_equal(
    monkeypatch, config, budgets, executions
):
    want = journal_and_verifications(monkeypatch, True, config, **budgets)
    got = journal_and_verifications(monkeypatch, False, config, **budgets)
    assert got[:3] == want[:3]
    assert len(got[0]) == executions
    result = got[3]
    # Most of a re-executing search is retrace; all of it went unverified
    # and none of the new ground did.
    assert 0.8 * result.stats.steps < result.retraced_steps < result.stats.steps
    assert want[3].retraced_steps == result.retraced_steps
    assert 0 < got[2] < result.stats.steps - result.retraced_steps


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_found_at_the_same_step(monkeypatch, name):
    mutant = MUTANTS[name]
    with apply_mutant(name):
        want = journal_and_verifications(
            monkeypatch, True, mutant.scenario(), **mutant.budgets
        )
        got = journal_and_verifications(
            monkeypatch, False, mutant.scenario(), **mutant.budgets
        )
    assert got[:3] == want[:3]
    assert got[1][0] == "violation" and got[0][-1][1] == "violation"


def test_only_the_explorers_chooser_vouches_for_anything():
    assert not hasattr(ScheduleChooser(()), "verified_steps")
    assert not hasattr(ProbeChooser((), set()), "verified_steps")
    roots = []
    explorer = Explorer(fifo(2, "a", "b"), roots=((0,), (1, 0)))
    real = explorer_module.ExplorationChooser

    class Recording(real):
        def __init__(self, *args):
            super().__init__(*args)
            roots.append((self.prefix, self.verified_steps))

    explorer_module.ExplorationChooser = Recording
    try:
        result = explorer.run()
    finally:
        explorer_module.ExplorationChooser = real
    # Root prefixes are somebody else's ground: verified from step one.
    assert [steps for prefix, steps in roots if prefix in ((0,), (1, 0))] == [0, 0]
    assert sum(steps for _, steps in roots) == result.retraced_steps > 0


def violating_prefix(name):
    """The unsharded search's raw counterexample, extended so that the
    violating step lies strictly inside the prefix."""
    with apply_mutant(name):
        config = MUTANTS[name].scenario()
        whole = Explorer(config, **MUTANTS[name].budgets).run()
        raw = whole.raw_counterexample
        prefix = raw + (0, 0)
        outcome = execute_run(config, ScheduleChooser(prefix))
    # The run stops at the violation with the last two indices unread.
    assert outcome.status == "violation" and outcome.trail == raw
    return config, prefix, whole


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_violation_inside_a_root_prefix_is_still_found(name):
    # Unverified ground is never skipped: the shard that is handed the
    # violating prefix as a root meets the violation while *replaying*
    # it, and reports what the unsharded search reports.
    config, prefix, whole = violating_prefix(name)
    with apply_mutant(name):
        sharded = Explorer(config, roots=(prefix,), **MUTANTS[name].budgets).run()
    assert sharded.verdict == "violation"
    assert sharded.retraced_steps == 0 and sharded.stats.executions == 1
    assert sharded.raw_counterexample == whole.raw_counterexample
    assert sharded.counterexample == whole.counterexample
    assert sharded.violations == whole.violations
