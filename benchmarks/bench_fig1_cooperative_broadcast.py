"""E1 — Figure 1: the m-valued cooperative broadcast abstraction.

Regenerates, per system size:

* operation latency (virtual time until every correct CB invocation
  returns) and message cost;
* the CB-Set Validity check under a colluding Byzantine value (the
  feasibility mechanism: a value with only ``t`` supporters never enters
  ``cb_valid``).
"""

from repro.broadcast import CooperativeBroadcast
from repro.sim import gather

import sys
sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _common import report  # noqa: E402

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parents[1]))
from tests.helpers import build_system  # noqa: E402


def run_cb_round(n, t, seed=0):
    """All-to-all CB with t colluding Byzantine pushing a fake value."""
    byzantine = tuple(range(n - t + 1, n + 1))
    system = build_system(n, t, seed=seed, byzantine=byzantine)
    for byz in system.byzantine.values():
        for dst in range(1, n - t + 1):
            byz.send_raw(dst, "RB_INIT", (("CB_VAL", "bench"), "FAKE"))
    cbs = {
        pid: CooperativeBroadcast(proc, system.rbs[pid], n, t, "bench")
        for pid, proc in system.processes.items()
    }
    values = {pid: ("a" if pid % 2 else "b") for pid in cbs}
    tasks = [
        system.processes[pid].create_task(cbs[pid].cb_broadcast(values[pid]))
        for pid in sorted(cbs)
    ]
    returned = system.run(gather(system.sim, tasks))
    latency = system.sim.now
    system.settle()
    return {
        "n": n,
        "t": t,
        "returned": returned,
        "latency": latency,
        "messages": system.network.messages_sent,
        "fake_excluded": all(not cb.in_valid("FAKE") for cb in cbs.values()),
        "valid_sets": [frozenset(cb.cb_valid) for cb in cbs.values()],
    }


SIZES = [(4, 1), (7, 2), (10, 3), (13, 4)]


def test_fig1_table(capsys):
    rows = []
    for n, t in SIZES:
        out = run_cb_round(n, t, seed=1)
        agree = len(set(out["valid_sets"])) == 1
        rows.append([
            n, t, f"{out['latency']:.1f}", out["messages"],
            out["fake_excluded"], agree,
        ])
        assert out["fake_excluded"], "CB-Set Validity violated"
        assert agree, "CB-Set Agreement violated at quiescence"
        assert all(v in ("a", "b") for v in out["returned"])
    report(
        "fig1_cooperative_broadcast",
        "E1 / Figure 1 — m-valued cooperative broadcast",
        ["n", "t", "virtual latency", "messages", "byz value excluded",
         "cb_valid sets equal"],
        rows,
        notes=("Claim: CB terminates at t<n/3 and a value pushed by the t "
               "Byzantine processes alone never enters cb_valid."),
        capsys=capsys,
    )


def test_fig1_message_growth():
    # RB underneath costs Theta(n^2) per instance and there are n
    # instances: total messages should grow roughly like n^3.
    small = run_cb_round(4, 1, seed=2)["messages"]
    large = run_cb_round(10, 3, seed=2)["messages"]
    ratio = large / small
    assert 5.0 < ratio < 40.0  # (10/4)^3 ~ 15.6, wide tolerance
