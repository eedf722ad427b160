"""E6 — Section 5.4: the tuning parameter k.

Strengthening the synchrony assumption to a ``<t+1+k>bisource`` widens
the witness sets to ``n - t + k``, shrinking the number of witness sets
to ``beta = C(n, n-t+k)`` and the worst-case horizon to ``beta * n``
rounds; ``k = t`` gives the optimal ``n``.

Regenerates the k-sweep: analytic beta/bound and the measured EA
convergence round under the adversarial coordinator-starving schedule
(where the coordinator machinery, not schedule luck, must do the work).
"""

from repro.analysis.combinatorics import beta, first_good_round, worst_case_round_bound
from repro.core.eventual_agreement import EventualAgreement
from repro.core.values import BOT
from repro.net import (
    Asynchronous,
    ExponentialDelay,
    PerTagTiming,
    ScriptedDelay,
    single_bisource,
)
from repro.sim import gather

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from tests.helpers import build_system  # noqa: E402


class SplitCB:
    """CB double pinning a persistent aux split (as in the E8 runs of
    ``bench_baseline_comparison.py``)."""

    def __init__(self, process, rb, n, t, instance, selector=None):
        self.process = process

    async def cb_broadcast(self, value):
        return "a" if self.process.pid % 2 == 1 else "b"

    def in_valid(self, value):
        return value in ("a", "b")

    @property
    def cb_valid(self):
        return ("a", "b")


def starved_topology(n, t, k):
    # Byzantine pids are LOW (1..t): the all-correct witness set is then
    # the lexicographically last combination, which maximises the k=0
    # guaranteed horizon and makes the k trade-off visible.
    correct = set(range(t + 1, n + 1))
    topo = single_bisource(n, t, bisource=t + 1, correct=correct, delta=1.0, k=k)
    slow_coord = Asynchronous(
        ScriptedDelay(lambda send, rng: 100.0 + 2.0 * send, "coord-starved")
    )
    topo.default = PerTagTiming(
        base=Asynchronous(ExponentialDelay(mean=4.0)),
        overrides={"EA_COORD": slow_coord},
    )
    return topo


def measure_convergence(n, t, k, seed, rounds=24):
    topo = starved_topology(n, t, k)
    byzantine = tuple(range(1, t + 1))
    system = build_system(n, t, topology=topo, seed=seed, byzantine=byzantine)
    for byz in system.byzantine.values():
        for r in range(1, rounds + 1):
            byz.broadcast_raw("EA_RELAY", (r, BOT))
    eas = {
        pid: EventualAgreement(proc, system.rbs[pid], n, t, m=2, k=k,
                               cb_factory=SplitCB)
        for pid, proc in system.processes.items()
    }
    proposals = {pid: ("a" if pid % 2 == 1 else "b") for pid in eas}
    for r in range(1, rounds + 1):
        tasks = [
            system.processes[pid].create_task(eas[pid].propose(r, proposals[pid]))
            for pid in sorted(eas)
        ]
        results = system.run(gather(system.sim, tasks), max_time=10_000_000.0)
        if len(set(results)) == 1:
            return r
    return None


def test_e6_table(capsys):
    n, t = 7, 2
    correct = set(range(t + 1, n + 1))
    rows = []
    analytic_rounds = []
    for k in (0, 1, 2):
        bound = worst_case_round_bound(n, t, k)
        topo = starved_topology(n, t, k)
        analytic = first_good_round(n, t, t + 1, topo.x_plus, correct, k=k)
        analytic_rounds.append(analytic)
        measured = [measure_convergence(n, t, k, seed) for seed in (1, 2, 3)]
        observed = [m for m in measured if m is not None]
        assert observed, f"k={k} never converged within the horizon"
        rows.append([
            k, t + 1 + k, beta(n, t, k), bound, analytic,
            f"{min(observed)}..{max(observed)}",
        ])
    # The guaranteed horizon shrinks strictly with k in this placement.
    assert analytic_rounds == sorted(analytic_rounds, reverse=True)
    assert analytic_rounds[0] > analytic_rounds[-1]
    bounds = [worst_case_round_bound(n, t, k) for k in (0, 1, 2)]
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[-1] == n  # k = t gives the optimal n-round horizon
    report(
        "sec54_parameterized",
        "E6 / Section 5.4 — the k trade-off (n=7, t=2, coordinator-starved "
        "schedule)",
        ["k", "bisource width t+1+k", "beta", "bound beta*n",
         "analytic first good round", "measured convergence round (seeds)"],
        rows,
        notes=("Claim: paying for a stronger <t+1+k>bisource buys a "
               "beta*n = C(n, n-t+k)*n round horizon; k=t yields n."),
        capsys=capsys,
    )
