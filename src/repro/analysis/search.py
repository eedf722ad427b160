"""Schedule search: hunt for slow or non-converging executions.

The worst case of an eventually-synchronous algorithm hides in specific
schedules.  These helpers sweep seeds to find the execution that
maximises a cost (rounds, latency) or fails to decide within a budget —
useful for regression-hunting and for calibrating the benchmark budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..orchestration.config import RunConfig
from ..orchestration.runner import ConsensusRunResult, run_consensus

__all__ = ["SearchOutcome", "find_worst_seed", "find_non_converging_seed"]


@dataclass
class SearchOutcome:
    """The result of a seed search."""

    seed: int
    cost: float
    result: "ConsensusRunResult"


def find_worst_seed(
    config: "RunConfig",
    seeds: Iterable[int],
    cost: "Callable[[ConsensusRunResult], float] | None" = None,
) -> SearchOutcome:
    """Run ``config`` across ``seeds``; return the costliest execution.

    The default cost is the largest round number any correct process
    entered (timed-out runs cost ``inf`` — they are the worst by
    definition).  Invariant checks stay on: a safety violation raises
    immediately whatever the search is optimising.
    """
    def default_cost(result) -> float:
        if not result.all_decided:
            return float("inf")
        return float(result.max_round)

    cost_fn = cost if cost is not None else default_cost
    worst: SearchOutcome | None = None
    for seed in seeds:
        result = run_consensus(replace(config, seed=seed))
        value = cost_fn(result)
        if worst is None or value > worst.cost:
            worst = SearchOutcome(seed=seed, cost=value, result=result)
    if worst is None:
        raise ValueError("seed search needs at least one seed")
    return worst


def find_non_converging_seed(
    config: "RunConfig",
    seeds: Iterable[int],
) -> SearchOutcome | None:
    """Return the first seed whose run fails to fully decide, or None.

    Used to demonstrate liveness gaps (e.g. baselines under minimal
    synchrony) and to validate that the paper's algorithm has none
    within a seed ensemble.
    """
    for seed in seeds:
        result = run_consensus(replace(config, seed=seed))
        if not result.all_decided:
            return SearchOutcome(seed=seed, cost=float("inf"), result=result)
    return None
