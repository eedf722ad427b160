"""Parameter-sweep helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..analysis.feasibility import max_values
from ..analysis.tables import format_table  # noqa: F401  (re-exported)

__all__ = [
    "PROPOSAL_PROFILES",
    "standard_proposals",
    "block_proposals",
    "skewed_proposals",
    "unanimous_proposals",
    "proposal_profile",
    "normalize_profile",
    "format_table",
]


def standard_proposals(
    correct: Iterable[int], values: Sequence[Any]
) -> dict[int, Any]:
    """Assign ``values`` to correct processes round-robin.

    With ``len(values) = m`` this produces a maximal-diversity profile:
    every value is proposed, and the profile is feasible whenever
    ``m <= max_values(n, t)``.
    """
    ordered = sorted(correct)
    return {pid: values[i % len(values)] for i, pid in enumerate(ordered)}


def block_proposals(
    correct: Iterable[int], values: Sequence[Any]
) -> dict[int, Any]:
    """Assign ``values`` in contiguous pid blocks (maximal diversity,
    minimal interleaving: low pids agree with their neighbours)."""
    ordered = sorted(correct)
    return {
        pid: values[i * len(values) // len(ordered)]
        for i, pid in enumerate(ordered)
    }


def skewed_proposals(
    correct: Iterable[int], values: Sequence[Any]
) -> dict[int, Any]:
    """A near-unanimous profile: every value appears, but all the slack
    goes to ``values[0]`` (one dissenting process per other value)."""
    ordered = sorted(correct)
    head = len(ordered) - (len(values) - 1)
    return {
        pid: values[0] if i < head else values[i - head + 1]
        for i, pid in enumerate(ordered)
    }


def unanimous_proposals(
    correct: Iterable[int], values: Sequence[Any]
) -> dict[int, Any]:
    """Everyone proposes ``values[0]`` (diversity 1, always feasible)."""
    return {pid: values[0] for pid in correct}


#: The ``proposals`` scenario axis: how a cell's value pool is dealt to
#: its correct processes.  Every profile is a pure function of the
#: sorted correct set and the cell's value list, so it is deterministic
#: and safe to reconstruct on the worker side of a process boundary.
PROPOSAL_PROFILES: dict[str, Callable[[Iterable[int], Sequence[Any]], dict[int, Any]]] = {
    "round_robin": standard_proposals,
    "block": block_proposals,
    "skewed": skewed_proposals,
    "unanimous": unanimous_proposals,
}


def normalize_profile(name: str) -> str:
    """Validate a proposal-profile name (the ``proposals`` axis codec)."""
    if name not in PROPOSAL_PROFILES:
        raise ValueError(
            f"unknown proposal profile {name!r} "
            f"(known: {', '.join(sorted(PROPOSAL_PROFILES))})"
        )
    return name


def proposal_profile(
    name: str,
) -> Callable[[Iterable[int], Sequence[Any]], dict[int, Any]]:
    """Look up a registered proposal profile by name."""
    return PROPOSAL_PROFILES[normalize_profile(name)]


def feasible_value_count(n: int, t: int, requested: int) -> int:
    """Clamp a requested value-diversity to the feasibility bound."""
    return max(1, min(requested, max_values(n, t)))
