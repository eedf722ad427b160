"""Named Byzantine strategies used by tests, benchmarks and examples.

Each strategy is a recipe the orchestration runner knows how to deploy:

============== ================================================================
``crash``       never sends anything (fail-silent from the start)
``noise``       answers received messages with forged mutations (no protocol)
``crash_at``    runs the real protocol, then goes silent at a given time
``two_faced``   runs the real protocol but equivocates: rewrites the value
                position of every outgoing payload for half the receivers
``mute_coord``  runs the real protocol but never sends EA_COORD — sabotages
                every round it coordinates (forces the timer/⊥ path)
``collude``     runs the protocol honestly but proposes a common fake value
                (tests that a t-supported value never enters cb_valid)
``spam_decide`` crash-silent except it RB-broadcasts a forged DECIDE, and
                floods forged relays (must never trick a correct process)
``bot_relays``  crash-silent except it pre-poisons every round's EA relay
                quorum with ⊥ relays — the schedule that separates the
                paper's F(r)-witness rule from the t+1-witness baseline
============== ================================================================

The filter functions are exported separately so custom scenarios can
compose them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "DROP",
    "OutboundFilter",
    "AdversarySpec",
    "PLACEMENTS",
    "normalize_placement",
    "place_adversaries",
    "crash",
    "noise",
    "crash_at",
    "two_faced",
    "flip_flop",
    "flip_flop_filter",
    "mute_coordinator",
    "collude",
    "spam_decide",
    "bot_relays",
    "two_faced_filter",
    "mute_coordinator_filter",
    "crash_at_filter",
    "compose_filters",
    "honest_filter",
]


class _Drop:
    """Sentinel returned by outbound filters to suppress a message."""

    def __repr__(self) -> str:
        return "<DROP>"


DROP = _Drop()

#: ``filter(dst, tag, payload, now) -> payload' | DROP``
OutboundFilter = Callable[[int, str, Any, float], Any]


@dataclass(frozen=True)
class AdversarySpec:
    """A deployable description of one Byzantine process's behaviour.

    Attributes:
        kind: One of the strategy names in the module docstring.
        proposal: Value the adversary proposes when it runs the protocol
            (ignored by non-protocol strategies).
        params: Strategy-specific parameters (e.g. ``crash_time``,
            ``fake_value``, ``noise_probability``).
        runs_protocol: Whether the runner should instantiate the real
            protocol stack for this process.
    """

    kind: str
    proposal: Any = None
    params: dict[str, Any] = field(default_factory=dict)
    runs_protocol: bool = True


# ----------------------------------------------------------------------
# Fault placement
# ----------------------------------------------------------------------
#: Where a cell's Byzantine processes sit in the pid space.  ``tail``
#: (the historical default) corrupts the highest pids, ``head`` the
#: lowest (displacing the default single-bisource, which is the lowest
#: *correct* pid), and ``spread`` distributes faults evenly across the
#: ring.  The ``placement`` scenario axis grids over these.
PLACEMENTS = ("tail", "head", "spread")


def normalize_placement(name: str) -> str:
    """Validate a fault-placement name (the ``placement`` axis codec)."""
    if name not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {name!r} (known: {', '.join(PLACEMENTS)})"
        )
    return name


def place_adversaries(placement: str, n: int, faults: int) -> list[int]:
    """The pids a cell's ``faults`` Byzantine processes occupy.

    Deterministic in ``(placement, n, faults)`` — placement is part of a
    scenario's semantic identity, so it must not consume randomness.
    """
    normalize_placement(placement)
    if faults <= 0:
        return []
    if faults >= n:
        raise ValueError(f"cannot place {faults} faults among {n} processes")
    if placement == "tail":
        return list(range(n - faults + 1, n + 1))
    if placement == "head":
        return list(range(1, faults + 1))
    # spread: march down from pid n in even steps; step >= 1 and
    # (faults - 1) * step < n keep the pids distinct and in 1..n.
    step = max(1, n // faults)
    return sorted(n - i * step for i in range(faults))


# ----------------------------------------------------------------------
# Strategy constructors
# ----------------------------------------------------------------------
def crash() -> AdversarySpec:
    """Fail-silent from the start (the mildest Byzantine behaviour)."""
    return AdversarySpec(kind="crash", runs_protocol=False)


def noise(probability: float = 0.5) -> AdversarySpec:
    """Reply to received traffic with forged mutations."""
    return AdversarySpec(
        kind="noise",
        params={"noise_probability": probability},
        runs_protocol=False,
    )


def crash_at(time: float, proposal: Any = None) -> AdversarySpec:
    """Participate correctly until ``time``, then go silent."""
    return AdversarySpec(kind="crash_at", proposal=proposal, params={"time": time})


def two_faced(fake_value: Any, proposal: Any = None) -> AdversarySpec:
    """Equivocate: send ``fake_value`` instead of the real value to every
    even-numbered receiver, at every protocol layer."""
    return AdversarySpec(
        kind="two_faced", proposal=proposal, params={"fake_value": fake_value}
    )


def mute_coordinator(proposal: Any = None) -> AdversarySpec:
    """Suppress all EA_COORD messages (never help any round converge)."""
    return AdversarySpec(kind="mute_coord", proposal=proposal)


def collude(fake_value: Any) -> AdversarySpec:
    """Run the protocol honestly but propose a common fake value."""
    return AdversarySpec(kind="collude", proposal=fake_value)


def spam_decide(fake_value: Any) -> AdversarySpec:
    """Forge DECIDE broadcasts and relays for a value nobody proposed."""
    return AdversarySpec(
        kind="spam_decide",
        params={"fake_value": fake_value},
        runs_protocol=False,
    )


def bot_relays(max_round: int = 500) -> AdversarySpec:
    """Pre-poison rounds ``1..max_round`` with instant ⊥ relays.

    Byzantine ⊥ relays are protocol-legal (a correct process sends ⊥ when
    its timer expires), so correct processes count them toward the
    ``n - t`` relay quorum of Figure 3 line 6.  Arriving instantly, they
    crowd the quorum snapshot so that it contains exactly one member of
    the bisource's timely output set — enough for the paper's line-7 rule
    (one F(r) witness suffices) but not for the ``t + 1``-witness rule of
    the strong-bisource baseline.  This is the legal worst-case schedule
    behind the E8 separation benchmark.
    """
    return AdversarySpec(
        kind="bot_relays",
        params={"max_round": max_round},
        runs_protocol=False,
    )


# ----------------------------------------------------------------------
# Outbound filters (building blocks for MisbehavingProcess)
# ----------------------------------------------------------------------
def honest_filter(dst: int, tag: str, payload: Any, now: float) -> Any:
    """Pass-through filter (an honest process in filter clothing)."""
    return payload


def flip_flop_filter(values: list[Any]) -> OutboundFilter:
    """Rotate through ``values`` as the payload value, per message sent.

    A restless equivocator: consecutive messages (to any destinations)
    carry different forged values, exercising the per-sender dedup and
    quorum intersection arguments differently from the destination-parity
    equivocator.
    """
    state = {"i": 0}

    def filt(dst: int, tag: str, payload: Any, now: float) -> Any:
        if isinstance(payload, tuple) and payload:
            value = values[state["i"] % len(values)]
            state["i"] += 1
            return payload[:-1] + (value,)
        return payload

    return filt


def flip_flop(values: list[Any] | None = None, proposal: Any = None) -> AdversarySpec:
    """Run the protocol but rotate forged values across all messages."""
    return AdversarySpec(
        kind="flip_flop",
        proposal=proposal,
        params={"values": values if values is not None else ["evil1", "evil2"]},
    )


def two_faced_filter(fake_value: Any) -> OutboundFilter:
    """Rewrite the value position of tuple payloads for even receivers.

    All protocol payloads in this library are tuples whose last element
    is the value being communicated, so this single rule equivocates at
    every layer: RB INIT/ECHO/READY, CB values, EA prop/coord/relay.
    """

    def filt(dst: int, tag: str, payload: Any, now: float) -> Any:
        if dst % 2 == 0 and isinstance(payload, tuple) and payload:
            return payload[:-1] + (fake_value,)
        return payload

    return filt


def mute_coordinator_filter() -> OutboundFilter:
    """Drop every EA_COORD message this process would send."""
    # Imported when a filter is built (a runtime is being assembled, so
    # the protocol stack is loaded anyway): naming an adversary in a
    # spec, a matrix or a cache key must not load it.
    from ..core.eventual_agreement import EventualAgreement

    coord = EventualAgreement.COORD

    def filt(dst: int, tag: str, payload: Any, now: float) -> Any:
        # startswith: namespaced EA objects use "EA_COORD:<namespace>".
        if tag.startswith(coord):
            return DROP
        return payload

    return filt


def crash_at_filter(crash_time: float) -> OutboundFilter:
    """Drop everything once virtual time reaches ``crash_time``."""

    def filt(dst: int, tag: str, payload: Any, now: float) -> Any:
        if now >= crash_time:
            return DROP
        return payload

    return filt


def compose_filters(*filters: OutboundFilter) -> OutboundFilter:
    """Chain filters left to right; a DROP anywhere wins."""

    def filt(dst: int, tag: str, payload: Any, now: float) -> Any:
        current = payload
        for one in filters:
            current = one(dst, tag, current, now)
            if current is DROP:
                return DROP
        return current

    return filt
