"""E4 — Figure 4: the synchrony-optimal Byzantine consensus algorithm.

Regenerates, per system size and adversary:

* termination under the minimal <t+1>bisource topology;
* decision rounds, virtual latency and message cost (message complexity
  per round is Theta(n^3): n RB instances of Theta(n^2) messages each).

The grid is declared as a :class:`ScenarioMatrix` and executed on the
parallel sweep engine; results are identical to a serial run by
construction (per-scenario seeds are derived structurally).
"""

from repro.orchestration.matrix import ScenarioMatrix, run_scenario

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import by_cell, report, run_matrix  # noqa: E402


SIZES = [(4, 1), (7, 2), (10, 3)]
ADVERSARIES = ["crash", "two_faced:evil", "mute_coord"]


def fig4_matrix(seeds=(1, 2)) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=SIZES,
        topologies=["single_bisource"],
        adversaries=ADVERSARIES,
        value_counts=[2],
        seeds=seeds,
    )


def run_one(n, t, adversary, seed):
    [spec] = ScenarioMatrix(
        sizes=[(n, t)], topologies=["single_bisource"],
        adversaries=[adversary], value_counts=[2], seeds=(seed,),
    ).expand()
    return run_scenario(spec, check_invariants=True)


def test_fig4_table(capsys):
    sweep = run_matrix(fig4_matrix())
    assert sweep.report.decide_rate == 1.0
    assert sweep.report.all_safe
    rows = []
    for cell_id, outcomes in by_cell(sweep).items():
        spec = outcomes[0].spec
        rows.append([
            spec.n, spec.t, spec.adversary,
            max(o.max_round for o in outcomes),
            f"{max(o.finished_at for o in outcomes):.0f}",
            max(o.messages_sent for o in outcomes),
        ])
    report(
        "fig4_consensus",
        "E4 / Figure 4 — Byzantine consensus under a minimal <t+1>bisource",
        ["n", "t", "adversary", "max rounds", "virtual latency (max)",
         "messages (max)"],
        rows,
        notes=("Claim: consensus terminates with t<n/3 plus one eventual "
               "<t+1>bisource, under every adversary; safety re-checked "
               "per run."),
        capsys=capsys,
    )


def test_fig4_message_scaling(capsys):
    # Per-round message cost should scale roughly like n^3.
    small = run_one(4, 1, "crash", seed=3)
    large = run_one(10, 3, "crash", seed=3)
    per_round_small = small.messages_sent / max(1, small.max_round)
    per_round_large = large.messages_sent / max(1, large.max_round)
    ratio = per_round_large / per_round_small
    assert 4.0 < ratio < 60.0  # (10/4)^3 ~ 15.6, generous band
    report(
        "fig4_message_scaling",
        "E4b — per-round message cost scaling",
        ["n", "messages/round"],
        [[4, f"{per_round_small:.0f}"], [10, f"{per_round_large:.0f}"]],
        notes=f"ratio = {ratio:.1f} (Theta(n^3) predicts ~15.6)",
        capsys=capsys,
    )
