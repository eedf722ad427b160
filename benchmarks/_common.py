"""Shared infrastructure for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one paper artifact (an algorithm
figure or analytic claim; its module docstring names the experiment,
E1–E10) as a printed table, writes it to ``benchmarks/results/``, and
asserts the claim on it.  Nothing here is timed: the repo's one
benchmark is ``benchmarks/stack``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable, Sequence

from repro.orchestration.matrix import ScenarioMatrix, ScenarioOutcome
from repro.orchestration.parallel import SweepResult, sweep_parallel
from repro.orchestration.sweeps import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_matrix(matrix: ScenarioMatrix, workers: int | None = None) -> SweepResult:
    """Execute one scenario matrix (``workers=None``: one process per
    schedulable CPU, or ``REPRO_SWEEP_WORKERS``; tables are bit-identical
    at any count)."""
    return sweep_parallel(matrix, workers=workers)


def by_cell(sweep: SweepResult) -> dict[str, list[ScenarioOutcome]]:
    """Group a sweep's outcomes by grid cell, preserving matrix order."""
    cells: dict[str, list[ScenarioOutcome]] = {}
    for outcome in sweep.outcomes:
        cells.setdefault(outcome.spec.cell_id, []).append(outcome)
    return cells


def report(name: str, title: str, headers: Sequence[str],
           rows: Iterable[Sequence[Any]], notes: str = "", capsys=None) -> str:
    """Render, persist and display one experiment table."""
    table = format_table(headers, rows)
    text = f"\n=== {title} ===\n{table}\n"
    if notes:
        text += f"{notes}\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    if capsys is not None:
        with capsys.disabled():
            print(text)
    else:
        print(text)
    return table


def crash_pack(n: int, t: int):
    """t crash adversaries on the top-t pids."""
    from repro.adversary import crash

    return {pid: crash() for pid in range(n - t + 1, n + 1)}
