"""E3 — Figure 3: the eventual-agreement object under a minimal bisource.

Regenerates the liveness story of Section 5: with one ``<t+1>bisource``
(everything else asynchronous), the EA object reaches rounds where all
correct processes return one common value — and the convergence round
tracks the stabilization time ``tau`` of the bisource's channels.
"""

from repro.core.eventual_agreement import EventualAgreement
from repro.net import single_bisource
from repro.sim import gather

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from tests.helpers import build_system  # noqa: E402


def drive_rounds(n, t, tau, seed, rounds=20):
    correct = set(range(1, n + 1))
    topo = single_bisource(n, t, bisource=1, correct=correct, tau=tau, delta=1.0)
    system = build_system(n, t, topology=topo, seed=seed)
    eas = {
        pid: EventualAgreement(proc, system.rbs[pid], n, t, m=2)
        for pid, proc in system.processes.items()
    }
    values = {pid: ("a" if pid % 2 else "b") for pid in eas}
    first_common = None
    stabilized_at = None
    for r in range(1, rounds + 1):
        tasks = [
            system.processes[pid].create_task(eas[pid].propose(r, values[pid]))
            for pid in sorted(eas)
        ]
        results = system.run(gather(system.sim, tasks), max_time=10_000_000.0)
        if stabilized_at is None and system.sim.now >= tau:
            stabilized_at = r
        if first_common is None and len(set(results)) == 1:
            first_common = r
            break
    return {
        "first_common": first_common,
        "virtual_time": system.sim.now,
        "messages": system.network.messages_sent,
    }


def test_fig3_table(capsys):
    n, t = 4, 1
    rows = []
    for tau in (0.0, 25.0, 100.0):
        outcomes = [drive_rounds(n, t, tau, seed) for seed in (1, 2, 3)]
        firsts = [o["first_common"] for o in outcomes]
        assert all(f is not None for f in firsts), f"no convergence, tau={tau}"
        rows.append([
            f"{tau:.0f}",
            min(firsts),
            max(firsts),
            f"{sum(o['virtual_time'] for o in outcomes)/3:.1f}",
        ])
    # Later stabilization cannot make convergence earlier on average.
    report(
        "fig3_eventual_agreement",
        "E3 / Figure 3 — EA convergence vs. stabilization time tau "
        "(n=4, t=1, single <2>bisource)",
        ["tau", "first common round (min over seeds)",
         "first common round (max)", "mean virtual time"],
        rows,
        notes=("Claim: EA-Eventual agreement holds with a single eventual "
               "<t+1>bisource; convergence follows stabilization."),
        capsys=capsys,
    )


def test_fig3_no_bisource_no_guarantee_but_safe(capsys):
    # Fully asynchronous: EA rounds still terminate (termination does not
    # need the bisource), only eventual agreement is at risk.
    from repro.net import fully_asynchronous

    n, t = 4, 1
    topo = fully_asynchronous(n)
    system = build_system(n, t, topology=topo, seed=5)
    eas = {
        pid: EventualAgreement(proc, system.rbs[pid], n, t, m=2)
        for pid, proc in system.processes.items()
    }
    values = {pid: ("a" if pid % 2 else "b") for pid in eas}
    for r in range(1, 6):
        tasks = [
            system.processes[pid].create_task(eas[pid].propose(r, values[pid]))
            for pid in sorted(eas)
        ]
        results = system.run(gather(system.sim, tasks), max_time=10_000_000.0)
        assert len(results) == n  # every invocation terminated
