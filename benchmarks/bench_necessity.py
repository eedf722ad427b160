"""E10 — the necessity direction: a ⟨t⟩bisource is not enough.

The paper's optimality argument: the ✸⟨t+1⟩bisource condition was shown
*necessary* in a strictly stronger model (Baldellon et al., ICDCN 2011),
hence also in this one.  A simulation cannot prove an impossibility, but
it can exhibit the mechanism: with only a ⟨t⟩bisource (one timely
output channel fewer), the Lemma 3 counting argument breaks — a relay
quorum of ``n - t`` messages need no longer contain any member of the
bisource's timely output set — and the legal worst-case schedule keeps
the EA object from ever converging, round after round.

Same harness as E8 (persistent aux split, EA_COORD starvation, ⊥-relay
quorum poisoning); the only difference between the two columns is one
timely channel.
"""

from repro.core.eventual_agreement import EventualAgreement
from repro.core.values import BOT
from repro.net import (
    Asynchronous,
    EventuallyTimely,
    ExponentialDelay,
    PerTagTiming,
    ScriptedDelay,
    Topology,
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
    """CB double pinning a persistent aux split."""

    def __init__(self, process, rb, n, t, instance, selector=None):
        self.process = process

    async def cb_broadcast(self, value):
        return "a" if self.process.pid % 2 == 1 else "b"

    def in_valid(self, value):
        return value in ("a", "b")

    @property
    def cb_valid(self):
        return ("a", "b")


class AdaptiveStarver(Asynchronous):
    """The adaptive worst-case scheduler for asynchronous channels.

    An asynchronous channel may delay *each message* by any finite
    amount, chosen with full knowledge of its content (the standard
    adaptive network adversary).  This one delivers ⊥ relays and regular
    traffic quickly but starves EA_COORD and every *championed* (non-⊥)
    EA_RELAY — exactly the schedule that forces convergence to flow
    through the bisource's timely channels.
    """

    def __init__(self) -> None:
        super().__init__(ExponentialDelay(mean=4.0))
        self._slow = ScriptedDelay(
            lambda send, rng: 100.0 + 2.0 * send, "starved"
        )

    def delivery_time_for(self, message, send_time, rng):
        tag = getattr(message, "tag", "")
        payload = getattr(message, "payload", None)
        starve = tag == "EA_COORD" or (
            tag == "EA_RELAY"
            and isinstance(payload, tuple)
            and len(payload) == 2
            and payload[1] is not BOT
        )
        if starve:
            return send_time + self._slow.sample(send_time, rng)
        return super().delivery_time(send_time, rng)

    def describe(self) -> str:
        return "AdaptiveStarver(coord + championed relays)"


def bisource_topology(out_width):
    """p1 with t timely in-channels and ``out_width - 1`` timely
    out-channels (out_width counts p1 itself); every asynchronous
    channel runs the adaptive starver.

    With ``out_width = t+1`` a relay quorum of ``n - t`` *must* contain
    a member of ``X+`` (only ``n - (t+1) < n - t`` processes are
    outside it), whose championed relay — slow but finite — eventually
    completes the quorum carrying the witness.  With ``out_width = t``
    the quorum fills with fast ⊥ relays and the witness never makes it.
    """
    overrides = {}
    x_minus = [2, 3][:T]
    for p in x_minus:
        overrides[(p, 1)] = EventuallyTimely(tau=0.0, delta=1.0)
    x_plus = [4, 5][: out_width - 1]
    for q in x_plus:
        overrides[(1, q)] = EventuallyTimely(tau=0.0, delta=1.0)
    return Topology(
        n=N, overrides=overrides, default=AdaptiveStarver(),
        description=f"<{out_width}>-wide output bisource at p1, adaptive starver",
    )


def convergence_profile(out_width, seed):
    system = build_system(N, T, topology=bisource_topology(out_width),
                          seed=seed, byzantine=(6, 7))
    for byz in system.byzantine.values():
        for r in range(1, ROUNDS + 1):
            byz.broadcast_raw("EA_RELAY", (r, BOT))
    eas = {
        pid: EventualAgreement(proc, system.rbs[pid], N, T, m=2,
                               cb_factory=SplitCB)
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


SEEDS = (1, 2, 3, 5, 8)


def test_e10_table(capsys):
    full = [sum(convergence_profile(T + 1, seed)) for seed in SEEDS]
    narrow = [sum(convergence_profile(T, seed)) for seed in SEEDS]
    rows = [
        [f"<{T + 1}>bisource (the paper's assumption)",
         f"{sum(full)}/{len(SEEDS) * ROUNDS}",
         "guaranteed (Lemma 3)"],
        [f"<{T}>bisource (one output channel fewer)",
         f"{sum(narrow)}/{len(SEEDS) * ROUNDS}",
         "not guaranteed (counting argument fails)"],
    ]
    # Wide: converges in every bisource-coordinated round (>= 1 per
    # seed); narrow: the witness never reaches a quorum in time.
    assert sum(full) >= len(SEEDS)
    assert sum(narrow) == 0, f"narrow converged: {narrow}"
    report(
        "necessity",
        "E10 — necessity flavour: one timely channel below the threshold "
        f"(n={N}, t={T}, {ROUNDS} rounds x {len(SEEDS)} seeds, worst-case "
        "schedule)",
        ["synchrony available", "convergence rounds", "status"],
        rows,
        notes=("With |X+| = t+1, any n-t relays include an X+ member "
               "(pigeonhole over n - (t+1) < n - t outsiders); with "
               "|X+| = t the adversary fills every quorum with ⊥."),
        capsys=capsys,
    )
