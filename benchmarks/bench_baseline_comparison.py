"""E8 — the separation: minimal synchrony vs the prior art.

Three algorithms on the same substrate:

* **paper** — Figure 3/4 with witness sets F(r): needs one eventual
  ``<t+1>bisource``;
* **strong** — the structural ablation of reference [1]'s assumption:
  convergence needs ``t+1`` matching relays, i.e. an ``<n-t>source``
  coordinator;
* **randomized** — the MMR-style baseline of reference [22]: needs *no*
  synchrony but is randomized and binary.

Under the legal worst-case schedule (one minimal bisource; asynchronous
channels starve EA_COORD; Byzantine processes pre-poison relay quorums
with ⊥), the paper's EA converges in nearly every correct-coordinated
round while the strong rule converges only in bisource rounds; the
randomized baseline decides everywhere but pays coin-flip rounds.
"""

from repro import run_randomized
from repro.adversary import crash
from repro.baselines import StrongBisourceEA
from repro.core.eventual_agreement import EventualAgreement
from repro.core.values import BOT
from repro.net import (
    Asynchronous,
    ExponentialDelay,
    PerTagTiming,
    ScriptedDelay,
    fully_asynchronous,
    single_bisource,
)
from repro.sim import gather

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from tests.helpers import build_system  # noqa: E402

N, T = 7, 2
CORRECT = set(range(1, 6))
ROUNDS = 12


class SplitCB:
    """CB double pinning a persistent aux split (no estimate drift)."""

    def __init__(self, process, rb, n, t, instance, selector=None):
        self.process = process

    async def cb_broadcast(self, value):
        return "a" if self.process.pid % 2 == 1 else "b"

    def in_valid(self, value):
        return value in ("a", "b")

    @property
    def cb_valid(self):
        return ("a", "b")


def worst_case_topology():
    topo = single_bisource(N, T, bisource=1, correct=CORRECT, delta=1.0)
    slow_coord = Asynchronous(
        ScriptedDelay(lambda send, rng: 100.0 + 2.0 * send, "coord-starved")
    )
    topo.default = PerTagTiming(
        base=Asynchronous(ExponentialDelay(mean=4.0)),
        overrides={"EA_COORD": slow_coord},
    )
    return topo


def ea_convergence_profile(ea_cls, seed):
    """Per-round agreement outcomes over ROUNDS rounds."""
    system = build_system(N, T, topology=worst_case_topology(), seed=seed,
                          byzantine=(6, 7))
    for byz in system.byzantine.values():
        for r in range(1, ROUNDS + 1):
            byz.broadcast_raw("EA_RELAY", (r, BOT))
    eas = {
        pid: ea_cls(proc, system.rbs[pid], N, T, m=2, cb_factory=SplitCB)
        for pid, proc in system.processes.items()
    }
    proposals = {pid: ("a" if pid % 2 == 1 else "b") for pid in eas}
    converged = []
    for r in range(1, ROUNDS + 1):
        tasks = [
            system.processes[pid].create_task(eas[pid].propose(r, proposals[pid]))
            for pid in sorted(eas)
        ]
        results = system.run(gather(system.sim, tasks), max_time=50_000_000.0)
        converged.append(len(set(results)) == 1)
    return converged


def randomized_rounds(seed):
    topo = fully_asynchronous(N, mean_delay=4.0)
    proposals = {pid: pid % 2 for pid in CORRECT}
    result = run_randomized(N, T, proposals, topo,
                            adversaries={6: crash(), 7: crash()}, seed=seed)
    if not result.decision_rounds:
        return None
    return max(result.decision_rounds.values())


SEEDS = (1, 2, 3, 5, 8)


def test_e8_table(capsys):
    paper_density = []
    strong_density = []
    paper_first = []
    strong_first = []
    for seed in SEEDS:
        paper = ea_convergence_profile(EventualAgreement, seed)
        strong = ea_convergence_profile(StrongBisourceEA, seed)
        paper_density.append(sum(paper))
        strong_density.append(sum(strong))
        paper_first.append(paper.index(True) + 1 if any(paper) else None)
        strong_first.append(strong.index(True) + 1 if any(strong) else None)
    rand_rounds = [randomized_rounds(seed) for seed in SEEDS]
    assert all(f is not None for f in paper_first)
    assert sum(paper_density) > 2 * sum(strong_density)
    assert all(r is not None for r in rand_rounds)
    rows = [
        ["paper (F(r) witness)", "<t+1>bisource",
         f"{sum(paper_density)}/{len(SEEDS) * ROUNDS}",
         f"{min(paper_first)}..{max(paper_first)}"],
        ["strong baseline [1]", "<n-t>source coordinator",
         f"{sum(strong_density)}/{len(SEEDS) * ROUNDS}",
         "-" if not any(strong_first) else
         f"{min(f for f in strong_first if f)}.."
         f"{max(f for f in strong_first if f)}"],
        ["randomized [22]", "none (randomized)",
         "n/a (coin-driven)",
         f"{min(rand_rounds)}..{max(rand_rounds)}"],
    ]
    report(
        "baseline_comparison",
        f"E8 — separation under the minimal <t+1>bisource worst case "
        f"(n={N}, t={T}, {ROUNDS} rounds x {len(SEEDS)} seeds)",
        ["algorithm", "synchrony needed", "convergence rounds",
         "first agreement round"],
        rows,
        notes=("Claim (paper headline): a single eventual <t+1>bisource "
               "suffices for the F(r)-witness algorithm; the stronger-"
               "assumption rule converges only in bisource-coordinated "
               "rounds; the randomized baseline needs no synchrony but "
               "gives up determinism."),
        capsys=capsys,
    )
