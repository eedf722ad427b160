"""Aggregation over scenario-matrix sweeps.

:mod:`repro.analysis.reporting` aggregates ensembles of *live*
:class:`~repro.orchestration.runner.ConsensusRunResult` objects; this
module does the analogous job for the picklable
:class:`~repro.orchestration.matrix.ScenarioOutcome` digests produced by
the sweep engine — including per-cell breakdowns, which is what turns a
flat list of thousands of runs into a readable scenario report.

It is also the single aggregation path for the persistent result store:
cache-served and freshly executed outcomes (:mod:`repro.store.cache`),
and outcomes merged from JSONL shards (:func:`repro.store.merge_shards`),
all flow through :func:`aggregate_outcomes`, so a resumed or merged
sweep reports through exactly the same code as a fresh one.

Reports can additionally be regrouped along *any* registered scenario
axis (:mod:`repro.orchestration.axes`): :func:`group_outcomes` buckets
outcomes by one or more axis values (``k``, ``faults``, ``placement``,
a custom axis, ...) and aggregates each bucket into its own
:class:`MatrixReport` — ``repro sweep --group-by k`` is the CLI face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .metrics import LatencySummary, summarize
from .tables import format_table

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.matrix import ScenarioOutcome

__all__ = [
    "CellStats",
    "MatrixReport",
    "aggregate_outcomes",
    "group_outcomes",
    "render_group_table",
    "render_matrix_table",
]


@dataclass
class CellStats:
    """Aggregates for one grid cell (all seeds of one configuration)."""

    cell_id: str
    runs: int = 0
    decided_runs: int = 0
    timed_out_runs: int = 0
    error_runs: int = 0
    #: Outcomes whose post-hoc safety checks failed (never expected).
    invariant_failures: int = 0
    rounds: LatencySummary = field(default_factory=LatencySummary)
    latency: LatencySummary = field(default_factory=LatencySummary)
    messages: LatencySummary = field(default_factory=LatencySummary)
    #: Histogram of decided values (``repr``-rendered).
    values: dict[str, int] = field(default_factory=dict)

    @property
    def decide_rate(self) -> float:
        """Fraction of this cell's runs in which every process decided."""
        return self.decided_runs / self.runs if self.runs else 0.0


@dataclass
class MatrixReport:
    """Aggregates over a whole scenario-matrix sweep."""

    runs: int = 0
    decided_runs: int = 0
    timed_out_runs: int = 0
    error_runs: int = 0
    invariant_failures: int = 0
    rounds: LatencySummary = field(default_factory=LatencySummary)
    latency: LatencySummary = field(default_factory=LatencySummary)
    messages: LatencySummary = field(default_factory=LatencySummary)
    values: dict[str, int] = field(default_factory=dict)
    #: Per-cell breakdown, in first-seen (grid) order.
    cells: dict[str, CellStats] = field(default_factory=dict)

    @property
    def decide_rate(self) -> float:
        """Fraction of runs in which every correct process decided."""
        return self.decided_runs / self.runs if self.runs else 0.0

    @property
    def all_safe(self) -> bool:
        """Whether no run falsified a safety invariant."""
        return self.invariant_failures == 0


def aggregate_outcomes(outcomes: Iterable["ScenarioOutcome"]) -> MatrixReport:
    """Aggregate scenario outcomes globally and per grid cell."""
    report = MatrixReport()
    rounds: list[float] = []
    latencies: list[float] = []
    messages: list[float] = []
    per_cell: dict[str, tuple[CellStats, list[float], list[float], list[float]]] = {}
    for outcome in outcomes:
        cell_id = outcome.spec.cell_id
        if cell_id not in per_cell:
            per_cell[cell_id] = (CellStats(cell_id=cell_id), [], [], [])
        cell, cell_rounds, cell_latencies, cell_messages = per_cell[cell_id]
        report.runs += 1
        cell.runs += 1
        if not outcome.invariants_ok:
            report.invariant_failures += 1
            cell.invariant_failures += 1
        if outcome.error is not None:
            report.error_runs += 1
            cell.error_runs += 1
            continue
        if outcome.timed_out:
            report.timed_out_runs += 1
            cell.timed_out_runs += 1
        if not outcome.decided:
            continue
        report.decided_runs += 1
        cell.decided_runs += 1
        if outcome.decided_value is not None:
            report.values[outcome.decided_value] = (
                report.values.get(outcome.decided_value, 0) + 1
            )
            cell.values[outcome.decided_value] = (
                cell.values.get(outcome.decided_value, 0) + 1
            )
        for sink, value in (
            (rounds, float(outcome.max_round)),
            (latencies, outcome.finished_at),
            (messages, float(outcome.messages_sent)),
        ):
            sink.append(value)
        cell_rounds.append(float(outcome.max_round))
        cell_latencies.append(outcome.finished_at)
        cell_messages.append(float(outcome.messages_sent))
    report.rounds = summarize(rounds)
    report.latency = summarize(latencies)
    report.messages = summarize(messages)
    for cell, cell_rounds, cell_latencies, cell_messages in per_cell.values():
        cell.rounds = summarize(cell_rounds)
        cell.latency = summarize(cell_latencies)
        cell.messages = summarize(cell_messages)
        report.cells[cell.cell_id] = cell
    return report


def group_outcomes(
    outcomes: Iterable["ScenarioOutcome"], by: Sequence[str]
) -> dict[str, MatrixReport]:
    """Regroup outcomes along arbitrary scenario axes.

    ``by`` names registered axes (or their aliases); each distinct value
    combination becomes one group keyed by a readable label like
    ``"k=1/faults=2"``, aggregated into its own :class:`MatrixReport`.
    Groups appear in first-seen (matrix) order.  Unknown axis names
    raise ``ValueError`` with the registered vocabulary.
    """
    from ..orchestration.axes import AXES

    axes = [AXES.resolve(name) for name in by]
    buckets: dict[str, list["ScenarioOutcome"]] = {}
    for outcome in outcomes:
        label = "/".join(
            f"{axis.name}={axis.of_spec(outcome.spec)}" for axis in axes
        )
        buckets.setdefault(label, []).append(outcome)
    return {label: aggregate_outcomes(group) for label, group in buckets.items()}


def render_group_table(grouped: dict[str, MatrixReport]) -> str:
    """Render a :func:`group_outcomes` result as an aligned text table
    (one row per group, same placeholder conventions as
    :func:`render_matrix_table`)."""
    if not grouped:
        return "(no scenarios)"
    rows: list[Sequence[object]] = []
    for label, report in grouped.items():
        rows.append([
            label,
            f"{report.decided_runs}/{report.runs}",
            f"{report.rounds.mean:.2f}" if report.rounds.count else "-",
            f"{report.messages.mean:.0f}" if report.messages.count else "-",
            report.timed_out_runs,
            "OK" if report.all_safe else "VIOLATED",
        ])
    return format_table(
        ["group", "decided", "mean rounds", "mean messages", "timeouts",
         "safety"],
        rows,
    )


def render_matrix_table(report: MatrixReport) -> str:
    """Render the per-cell breakdown as an aligned text table.

    Cells without timing samples (every run timed out, errored, or the
    report is empty) render ``-`` placeholders rather than fake zeros;
    an empty report yields just the header with a note.
    """
    if not report.cells:
        return "(no scenarios)"
    rows: list[Sequence[object]] = []
    for cell in report.cells.values():
        rows.append([
            cell.cell_id,
            f"{cell.decided_runs}/{cell.runs}",
            f"{cell.rounds.mean:.2f}" if cell.rounds.count else "-",
            f"{cell.rounds.p90:.0f}" if cell.rounds.count else "-",
            f"{cell.messages.mean:.0f}" if cell.messages.count else "-",
            cell.timed_out_runs,
            "OK" if cell.invariant_failures == 0 else "VIOLATED",
        ])
    return format_table(
        ["cell", "decided", "mean rounds", "p90 rounds", "mean messages",
         "timeouts", "safety"],
        rows,
    )
