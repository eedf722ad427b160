"""E7 — the feasibility condition n - t > m*t (Sections 2.3 / 3).

Regenerates:

* the analytic m_max table over (n, t);
* a demonstration that the bound is operational: at m = m_max the full
  consensus stack decides, while a profile exceeding the bound (checked
  bypassed by declaring a smaller m) leaves the CB layer — and hence the
  whole stack — waiting forever.
"""

from repro import RunConfig, run_consensus, standard_proposals
from repro.adversary import crash
from repro.analysis.feasibility import max_values

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402


GRID = [(4, 1), (7, 1), (7, 2), (10, 2), (10, 3), (13, 3), (13, 4), (16, 5)]


def run_at_m(n, t, m, seed=1, lie_about_m=False):
    values = [f"v{i}" for i in range(m)]
    correct = range(1, n - t + 1)
    proposals = standard_proposals(correct, values)
    return run_consensus(
        RunConfig(
            n=n, t=t, proposals=proposals,
            adversaries={pid: crash() for pid in range(n - t + 1, n + 1)},
            m=1 if lie_about_m else None,
            seed=seed,
            max_time=3_000.0 if lie_about_m else 1_000_000.0,
        ),
        check_invariants=True,
    )


def test_e7_table(capsys):
    rows = []
    for n, t in GRID:
        m_max = max_values(n, t)
        rows.append([n, t, n - t, m_max, m_max * t, (n - t) > m_max * t])
        assert (n - t) > m_max * t
        assert not (n - t) > (m_max + 1) * t
    report(
        "feasibility_table",
        "E7 — the m-valued feasibility bound m_max = floor((n-t-1)/t)",
        ["n", "t", "correct", "m_max", "m_max*t", "n-t > m_max*t"],
        rows,
        notes="Claim: m_max is the largest m with n - t > m*t (sharp).",
        capsys=capsys,
    )


def test_e7_boundary_behaviour(capsys):
    rows = []
    for n, t in [(4, 1), (7, 2), (10, 3)]:
        m_max = max_values(n, t)
        ok = run_at_m(n, t, m_max)
        assert ok.all_decided, f"m=m_max must decide (n={n}, t={t})"
        # One value beyond the bound: some correct value profile has no
        # t+1-supported value, the initial CB never fills, nobody decides.
        blocked = run_at_m(n, t, m_max + 1, lie_about_m=True)
        assert blocked.timed_out and not blocked.decisions, (
            f"m=m_max+1 should block (n={n}, t={t})"
        )
        rows.append([n, t, m_max, ok.all_decided, bool(blocked.decisions)])
    report(
        "feasibility_boundary",
        "E7b — feasibility is operational: decide at m_max, block beyond",
        ["n", "t", "m_max", "decides at m_max", "decides at m_max+1"],
        rows,
        notes=("At m_max+1 the adversary can split correct proposals so "
               "that no value reaches t+1 supporters: cb_valid stays "
               "empty and CB-broadcast (hence consensus) never returns."),
        capsys=capsys,
    )
