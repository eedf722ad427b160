"""Ablations of the design choices called out in docs/claims.md.

A1 — timer placement (Deviations 1): literal Figure 3 (timer armed at
     line 5, after the early return) vs. this repo's fix (armed before).
     The literal version deadlocks on the constructed line-4 split
     schedule; the fix terminates, and on ordinary runs both behave
     identically.

A2 — timeout schedule (footnote 3): any increasing ``timeout_fn`` works;
     steeper schedules waste virtual time waiting, shallower ones churn
     rounds before stabilization.

A3 — FIFO vs. non-FIFO channels: the algorithms do not need FIFO; this
     ablation confirms behaviour and cost are unaffected.

A4 — cb_valid selector: the "any value" choice point (Figure 1 line 3)
     affects which value wins, never whether agreement holds.
"""

from repro import RunConfig, run_consensus
from repro.adversary import crash, two_faced
from repro.core.values import first_added, smallest
from repro.net import single_bisource

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402


def base_config(seed, **overrides):
    defaults = dict(
        n=4, t=1, proposals={1: "b", 2: "a", 3: "b"},
        adversaries={4: two_faced("evil")}, seed=seed,
        max_time=1_000_000.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_a1_timer_placement(capsys):
    # On ordinary runs the deviation is invisible: identical outcomes.
    # (The deadlock needs the scripted split schedule — reproduced in
    # tests/core/test_ea_strict_mode.py; here we show equivalence on the
    # happy path.)
    from repro.core.eventual_agreement import EventualAgreement

    def strict_factory(*args, **kwargs):
        kwargs["strict_paper_timers"] = True
        return EventualAgreement(*args, **kwargs)

    rows = []
    for seed in (1, 2, 3):
        fixed = run_consensus(base_config(seed))
        strict = run_consensus(base_config(seed, ea_factory=strict_factory))
        assert fixed.decisions == strict.decisions
        rows.append([seed, fixed.decided_value, strict.decided_value,
                     fixed.max_round, strict.max_round])
    report(
        "ablation_timer_placement",
        "A1 — timer placement: fixed (default) vs literal Figure 3",
        ["seed", "fixed decides", "literal decides", "fixed rounds",
         "literal rounds"],
        rows,
        notes=("Identical on ordinary schedules; the literal version "
               "deadlocks only on the line-4 split schedule (see "
               "tests/core/test_ea_strict_mode.py)."),
        capsys=capsys,
    )


def test_a2_timeout_schedules(capsys):
    schedules = {
        "r (paper)": lambda r: float(r),
        "2r": lambda r: 2.0 * r,
        "r^2": lambda r: float(r * r),
        "5 + r": lambda r: 5.0 + r,
    }
    topo = single_bisource(4, 1, bisource=1, correct={1, 2, 3}, tau=40.0)
    rows = []
    for name, fn in schedules.items():
        results = [
            run_consensus(base_config(seed, timeout_fn=fn, topology=topo,
                                      adversaries={4: crash()}))
            for seed in (1, 2, 3)
        ]
        assert all(r.all_decided for r in results), name
        rows.append([
            name,
            max(r.max_round for r in results),
            f"{max(r.finished_at for r in results):.0f}",
        ])
    report(
        "ablation_timeout_schedules",
        "A2 — timeout schedule f(r) (late-stabilizing bisource, tau=40)",
        ["schedule", "max rounds", "max virtual time"],
        rows,
        notes=("Footnote 3: any increasing schedule preserves correctness; "
               "the trade-off is rounds churned vs. time spent waiting."),
        capsys=capsys,
    )


def test_a3_fifo_channels(capsys):
    rows = []
    for seed in (1, 2, 3):
        plain = run_consensus(base_config(seed))
        fifo = run_consensus(base_config(seed, fifo=True))
        assert plain.all_decided and fifo.all_decided
        assert len(set(plain.decisions.values())) == 1
        assert len(set(fifo.decisions.values())) == 1
        rows.append([seed, plain.decided_value, fifo.decided_value,
                     plain.messages_sent, fifo.messages_sent])
    report(
        "ablation_fifo",
        "A3 — FIFO vs non-FIFO channels",
        ["seed", "non-FIFO decides", "FIFO decides", "non-FIFO msgs",
         "FIFO msgs"],
        rows,
        notes="The algorithms never rely on channel ordering.",
        capsys=capsys,
    )


def test_a4_selector_choice(capsys):
    # Same runs with different "any value in cb_valid" selectors: the
    # decided value may differ, agreement/validity never do.
    rows = []
    for seed in (1, 2, 3, 4):
        first = run_consensus(base_config(seed, selector=first_added))
        small = run_consensus(base_config(seed, selector=smallest))
        assert first.all_decided and small.all_decided
        assert first.decided_value in {"a", "b"}
        assert small.decided_value in {"a", "b"}
        rows.append([seed, first.decided_value, small.decided_value])
    report(
        "ablation_selector",
        "A4 — cb_valid selector (first-added vs smallest)",
        ["seed", "first-added decides", "smallest decides"],
        rows,
        notes=("Figure 1 line 3 allows any choice: the winner may change, "
               "agreement and validity never do."),
        capsys=capsys,
    )
