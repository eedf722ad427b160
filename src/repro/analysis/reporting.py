"""Aggregation and reporting over ensembles of consensus runs.

The benchmarks and the CLI sweep command need the same small set of
aggregates over a list of :class:`~repro.orchestration.runner.ConsensusRunResult`:
decision rate, round/latency/message summaries, decided-value histogram,
and a rendered table.  This module centralises them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .metrics import LatencySummary, summarize
from .tables import format_table

__all__ = ["EnsembleReport", "aggregate", "render_ensemble_table"]


@dataclass
class EnsembleReport:
    """Aggregates over one ensemble of runs (typically a seed sweep)."""

    #: Total runs aggregated.
    runs: int = 0
    #: Runs in which every correct process decided.
    decided_runs: int = 0
    #: Histogram of decided values (keyed by ``repr``).
    values: dict[str, int] = field(default_factory=dict)
    #: Summary of the max round reached per decided run.
    rounds: LatencySummary = field(default_factory=LatencySummary)
    #: Summary of virtual decision latency per decided run.
    latency: LatencySummary = field(default_factory=LatencySummary)
    #: Summary of total messages per decided run.
    messages: LatencySummary = field(default_factory=LatencySummary)
    #: Whether every run passed its invariant checks.
    all_safe: bool = True
    #: Spread between the first and last decision within a run (max).
    max_decision_spread: float = 0.0

    @property
    def decision_rate(self) -> float:
        """Fraction of runs in which every correct process decided."""
        return self.decided_runs / self.runs if self.runs else 0.0


def aggregate(results: Iterable[Any]) -> EnsembleReport:
    """Aggregate an iterable of :class:`ConsensusRunResult` objects."""
    report = EnsembleReport()
    rounds: list[float] = []
    latencies: list[float] = []
    messages: list[float] = []
    for result in results:
        report.runs += 1
        report.all_safe = report.all_safe and result.invariants.ok
        if not result.all_decided:
            continue
        report.decided_runs += 1
        key = repr(result.decided_value)
        report.values[key] = report.values.get(key, 0) + 1
        rounds.append(float(result.max_round))
        latencies.append(max(result.decision_times.values()))
        messages.append(float(result.messages_sent))
        if len(result.decision_times) > 1:
            spread = max(result.decision_times.values()) - min(
                result.decision_times.values()
            )
            report.max_decision_spread = max(report.max_decision_spread, spread)
    report.rounds = summarize(rounds)
    report.latency = summarize(latencies)
    report.messages = summarize(messages)
    return report


def render_ensemble_table(
    labelled_reports: Sequence[tuple[str, EnsembleReport]],
) -> str:
    """Render labelled ensemble reports as an aligned text table."""
    rows = []
    for label, report in labelled_reports:
        rows.append([
            label,
            f"{report.decided_runs}/{report.runs}",
            f"{report.rounds.mean:.2f}" if report.rounds.count else "-",
            f"{report.latency.mean:.1f}" if report.latency.count else "-",
            f"{report.messages.mean:.0f}" if report.messages.count else "-",
            "OK" if report.all_safe else "VIOLATED",
        ])
    return format_table(
        ["configuration", "decided", "mean rounds", "mean latency",
         "mean messages", "safety"],
        rows,
    )
