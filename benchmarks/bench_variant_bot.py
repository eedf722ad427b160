"""E9 — the Section 7 ⊥-default-validity variant.

Regenerates the variant's behavioural envelope:

* unanimity among correct processes never yields ⊥;
* arbitrary (feasibility-violating) proposal profiles still terminate,
  deciding either a correct proposal or ⊥;
* a value proposed only by Byzantine processes is never decided.

Each profile row is one scenario-matrix cell (the ``bot`` variant
disables value-diversity clamping, so infeasible m are expressible) and
the whole table regenerates through the parallel sweep engine.
"""

from repro.orchestration.matrix import ScenarioMatrix

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report, run_matrix  # noqa: E402


SEEDS = (1, 2, 3, 5, 8, 13)
BOT_REPR = "⊥"  # ScenarioOutcome values are repr-rendered; repr(BOT) is ⊥


def bot_matrix(n, t, num_values, adversary, seeds=SEEDS) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=[(n, t)],
        topologies=["single_bisource"],
        adversaries=[adversary],
        value_counts=[num_values],
        seeds=seeds,
        variant="bot",
    )


def profile_outcomes(n, t, num_values, adversary):
    sweep = run_matrix(bot_matrix(n, t, num_values, adversary))
    assert sweep.report.decide_rate == 1.0
    assert sweep.report.all_safe
    return [o.decided_value for o in sweep.outcomes]


def bot_count(decided):
    return sum(v == BOT_REPR for v in decided)


def test_e9_table(capsys):
    rows = []
    # Unanimous: never ⊥.
    unanimous = profile_outcomes(4, 1, 1, "noise:0.4")
    assert all(v == "'v0'" for v in unanimous)
    rows.append(["unanimous (m=1)", "n=4 t=1", "noise",
                 f"{bot_count(unanimous)}/{len(SEEDS)}",
                 "always 'v0'"])
    # Feasible split: ⊥ possible but proposals admissible too.
    split = profile_outcomes(4, 1, 2, "two_faced:evil")
    assert all(v in {"'v0'", "'v1'", BOT_REPR} for v in split)
    assert all(v != "'evil'" for v in split)
    rows.append(["split (m=2)", "n=4 t=1", "two-faced",
                 f"{bot_count(split)}/{len(SEEDS)}",
                 "'v0'/'v1'/⊥, never 'evil'"])
    # Infeasible profile (m=3 > m_max=2): the classic algorithm cannot
    # even be configured; the variant terminates.
    distinct = profile_outcomes(4, 1, 3, "crash")
    assert all(v in {"'v0'", "'v1'", "'v2'", BOT_REPR} for v in distinct)
    rows.append(["all distinct (m=3 > m_max)", "n=4 t=1", "crash",
                 f"{bot_count(distinct)}/{len(SEEDS)}",
                 "terminates despite infeasibility"])
    # Larger system, many distinct values.
    wide = profile_outcomes(7, 2, 5, "crash")
    rows.append(["five distinct (m=5)", "n=7 t=2", "crash x2",
                 f"{bot_count(wide)}/{len(SEEDS)}",
                 "terminates despite infeasibility"])
    report(
        "variant_bot",
        "E9 / Section 7 — the ⊥-default-validity variant",
        ["profile", "system", "adversary", "⊥ decisions", "notes"],
        rows,
        notes=("Claims: unanimity never yields ⊥; arbitrary value "
               "diversity terminates; Byzantine-only values are never "
               "decided."),
        capsys=capsys,
    )


def test_e9_unanimity_never_bot_wide_sweep():
    sweep = run_matrix(bot_matrix(4, 1, 1, "two_faced:evil", seeds=range(10)))
    assert len(sweep.outcomes) == 10
    for outcome in sweep.outcomes:
        assert outcome.decided_value == "'v0'", outcome.spec.seed_index
