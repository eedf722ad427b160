"""E2 — Figure 2: the Byzantine m-valued adopt-commit object.

Regenerates:

* AC-Obligation: unanimous correct proposals always commit;
* AC-Quasi-agreement under split proposals and equivocating estimates;
* latency / message cost per system size.
"""

from repro.core.adopt_commit import AdoptCommit, Tag
from repro.sim import gather

import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import report  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
from tests.helpers import build_system  # noqa: E402


def run_ac_round(n, t, values, seed=0, byz_estimate=None):
    byzantine = tuple(range(n - t + 1, n + 1))
    system = build_system(n, t, seed=seed, byzantine=byzantine)
    if byz_estimate is not None:
        for byz in system.byzantine.values():
            for dst in range(1, n - t + 1):
                byz.send_raw(dst, "RB_INIT", (("CB_VAL", ("AC", "bench")), byz_estimate))
                byz.send_raw(dst, "RB_INIT", (("AC_EST", "bench"), byz_estimate))
    acs = {
        pid: AdoptCommit(proc, system.rbs[pid], n, t, m=2, instance="bench")
        for pid, proc in system.processes.items()
    }
    tasks = [
        system.processes[pid].create_task(acs[pid].propose(values[pid]))
        for pid in sorted(acs)
    ]
    results = system.run(gather(system.sim, tasks))
    return {
        "results": dict(zip(sorted(acs), results)),
        "latency": system.sim.now,
        "messages": system.network.messages_sent,
    }


SIZES = [(4, 1), (7, 2), (10, 3)]


def test_fig2_table(capsys):
    rows = []
    for n, t in SIZES:
        correct = range(1, n - t + 1)
        unanimous = run_ac_round(n, t, {p: "v" for p in correct}, seed=1,
                                 byz_estimate="w")
        split = run_ac_round(
            n, t, {p: ("a" if p % 2 else "b") for p in correct}, seed=1,
            byz_estimate="a",
        )
        u_tags = {tag for tag, _ in unanimous["results"].values()}
        s_committed = {
            v for tag, v in split["results"].values() if tag is Tag.COMMIT
        }
        s_values = {v for _, v in split["results"].values()}
        # Obligation: unanimity can only commit, and only "v".
        assert u_tags == {Tag.COMMIT}
        assert {v for _, v in unanimous["results"].values()} == {"v"}
        # Quasi-agreement: at most one committed value; if committed, all
        # returned values equal it.
        assert len(s_committed) <= 1
        if s_committed:
            assert s_values == s_committed
        rows.append([
            n, t, "commit" if u_tags == {Tag.COMMIT} else "?!",
            len(s_committed), f"{split['latency']:.1f}", split["messages"],
        ])
    report(
        "fig2_adopt_commit",
        "E2 / Figure 2 — Byzantine adopt-commit",
        ["n", "t", "unanimous outcome", "committed values (split)",
         "virtual latency", "messages"],
        rows,
        notes=("Claims: unanimity forces <commit, v> (AC-Obligation); a "
               "commit pins every other outcome (AC-Quasi-agreement)."),
        capsys=capsys,
    )


def test_fig2_output_domain_excludes_byzantine_values():
    out = run_ac_round(7, 2, {p: ("a" if p % 2 else "b") for p in range(1, 6)},
                       seed=3, byz_estimate="evil")
    for tag, value in out["results"].values():
        assert value in {"a", "b"}
