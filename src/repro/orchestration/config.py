"""Run configuration for consensus experiments.

A :class:`RunConfig` is the *live* description of one run (value
objects, callables, a topology instance).  The sweep engine never ships
it across process boundaries: workers reconstruct it from a picklable
:class:`~repro.orchestration.matrix.ScenarioSpec` via
:func:`~repro.orchestration.matrix.build_config`, where every registered
scenario axis (:mod:`repro.orchestration.axes`) contributes its field —
fault placement chooses ``adversaries``, the proposal profile deals
``proposals``, and extras-backed custom axes patch keyword arguments
(e.g. ``fifo``) through their ``apply`` hooks before ``__post_init__``
validates the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..adversary.strategies import AdversarySpec
from ..analysis.feasibility import check_feasibility
from ..errors import ConfigurationError
from ..net.topology import Topology

__all__ = ["RunConfig"]


@dataclass
class RunConfig:
    """Everything needed to execute one consensus run.

    Attributes:
        n: Number of processes (ids ``1..n``).
        t: Resilience parameter; must satisfy ``n > 3t``.  The number of
            *actual* adversaries may be anything up to ``t``.
        proposals: ``pid -> value`` for every correct process.  Keys must
            be exactly the processes not named in ``adversaries``.
        adversaries: ``pid -> AdversarySpec`` for the faulty processes.
        topology: Channel-timing matrix; ``None`` selects the minimal
            single-``<t+1+k>bisource`` topology with the lowest correct
            pid as bisource.
        m: Bound on distinct correct proposals; ``None`` derives it from
            ``proposals`` (standard variant) or disables the check (⊥
            variant).
        k: Section 5.4 tuning parameter.
        seed: Master seed for all randomness (channels, adversaries).
        variant: ``"standard"`` (Figure 4) or ``"bot"`` (Section 7).
        ea_factory: Override for the EA implementation (baselines).
        timeout_fn: EA round-timeout schedule override.
        max_rounds: Cap on consensus rounds per process (``None``: none).
        selector: Deterministic "any value in cb_valid" choice override
            (default: first value added; see repro.core.values).
        max_time: Virtual-time budget for the run.
        max_events: Event budget for the run (runaway guard).
        fifo: Whether channels deliver in order.
        trace: Record a full structured event trace (network sends and
            deliveries, RB deliveries, decisions) on the result's
            ``trace`` attribute.  Adds memory/CPU cost; off by default.
        check_schedule: Replay a checker schedule (:mod:`repro.checking`):
            the run executes under check-mode semantics (instant
            deliveries, ``topology`` ignored) with delivery order forced
            by the given choice indices, defaulting to first-candidate
            once the schedule is consumed.  ``None`` (default) runs the
            ordinary sampled semantics.
    """

    n: int
    t: int
    proposals: dict[int, Any]
    adversaries: dict[int, AdversarySpec] = field(default_factory=dict)
    topology: Topology | None = None
    m: int | None = None
    k: int = 0
    seed: int = 0
    variant: str = "standard"
    ea_factory: Callable[..., Any] | None = None
    timeout_fn: Callable[[int], float] | None = None
    max_rounds: int | None = None
    selector: Callable[..., Any] | None = None
    max_time: float = 100_000.0
    max_events: int = 20_000_000
    fifo: bool = False
    trace: bool = False
    check_schedule: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.check_schedule is not None:
            self.check_schedule = tuple(int(c) for c in self.check_schedule)
            if any(c < 0 for c in self.check_schedule):
                raise ConfigurationError(
                    f"check_schedule indices must be >= 0, "
                    f"got {self.check_schedule}"
                )
        if not self.n > 3 * self.t:
            raise ConfigurationError(
                f"resilience bound requires n > 3t, got n={self.n}, t={self.t}"
            )
        if len(self.adversaries) > self.t:
            raise ConfigurationError(
                f"{len(self.adversaries)} adversaries exceed t={self.t}"
            )
        all_pids = set(range(1, self.n + 1))
        byzantine = set(self.adversaries)
        if not byzantine <= all_pids:
            raise ConfigurationError(f"adversary pids out of range: {byzantine}")
        expected_correct = all_pids - byzantine
        if set(self.proposals) != expected_correct:
            raise ConfigurationError(
                f"proposals must cover exactly the correct processes "
                f"{sorted(expected_correct)}, got {sorted(self.proposals)}"
            )
        if self.variant not in ("standard", "bot"):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if not 0 <= self.k <= self.t:
            raise ConfigurationError(f"k must be in 0..t, got {self.k}")
        for budget in ("max_time", "max_events"):
            value = getattr(self, budget)
            if value < 0:
                raise ConfigurationError(f"{budget} must be >= 0, got {value}")
        if self.variant == "standard" and self.m is None:
            # Derive m from the profile and fail fast if infeasible.
            self.m = max(1, len(set(self.proposals.values())))
        if self.variant == "standard":
            check_feasibility(self.n, self.t, self.m)

    @property
    def correct(self) -> frozenset[int]:
        """The correct process ids."""
        return frozenset(self.proposals)

    @property
    def byzantine(self) -> frozenset[int]:
        """The faulty process ids."""
        return frozenset(self.adversaries)
