"""Resumable sweeps: diff a scenario matrix against the result store.

:func:`plan_resume` splits a matrix (or spec list) into the outcomes the
cache already holds and the specs that still need execution — the
partition every cache-aware sweep runs on
(:func:`repro.orchestration.parallel.sweep_parallel` with ``cache=``:
cache hits reattach the caller's specs, so the merged result is
indistinguishable from a fresh full sweep, matrix indices included).
:func:`count_cached` is the cheap preview of the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..orchestration.matrix import (
    ScenarioMatrix,
    ScenarioOutcome,
    ScenarioSpec,
    as_specs,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ResultCache

__all__ = [
    "ResumePlan",
    "count_cached",
    "describe_counts",
    "plan_resume",
]


def describe_counts(cached: int, missing: int) -> str:
    """The one-line resume summary shared by :meth:`ResumePlan.describe`
    and the CLI's ``--resume`` preview."""
    return f"{cached}/{cached + missing} scenarios cached, {missing} to run"


@dataclass
class ResumePlan:
    """Partition of a matrix into already-cached and still-missing work."""

    #: Cache hits, carrying the requesting matrix's specs.
    cached: list[ScenarioOutcome]
    #: Specs with no cache entry, in matrix order.
    missing: list[ScenarioSpec]

    @property
    def total(self) -> int:
        return len(self.cached) + len(self.missing)

    @property
    def complete(self) -> bool:
        """True when the store already covers the whole matrix."""
        return not self.missing

    def describe(self) -> str:
        """One-line human summary (the CLI's ``--resume`` output)."""
        return describe_counts(len(self.cached), len(self.missing))


def count_cached(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    cache: ResultCache,
) -> tuple[int, int]:
    """Cheap ``(cached, missing)`` counts for a matrix.

    Existence checks only — no entry is read or decoded and the cache's
    hit/miss stats are untouched, so this is safe to run as a preview
    right before a cache-aware sweep does the real partition.
    """
    cached = missing = 0
    for spec in as_specs(scenarios):
        if spec in cache:
            cached += 1
        else:
            missing += 1
    return cached, missing


def plan_resume(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    cache: ResultCache,
) -> ResumePlan:
    """Split ``scenarios`` into cached outcomes and missing specs."""
    cached: list[ScenarioOutcome] = []
    missing: list[ScenarioSpec] = []
    for spec in as_specs(scenarios):
        outcome = cache.get(spec)
        if outcome is None:
            missing.append(spec)
        else:
            cached.append(outcome)
    return ResumePlan(cached=cached, missing=missing)
