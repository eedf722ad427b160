"""Greedy single-choice minimization — the differential-test oracle.

This is the shrink loop ``repro.checking.explorer.minimize_counterexample``
ran before it learnt to drop whole windows of choices first: try removing
each choice in turn, restart the pass after any success, stop when a full
pass removes nothing.  One replay per choice per pass — 217 replays to
shrink the ``decide-any-support`` trail to ``[]``.  It is kept only as
the reference ``test_shrink.py`` compares the production minimizer
against; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Callable


def greedy_shrink(
    schedule: tuple[int, ...],
    reproduces: Callable[[tuple[int, ...]], bool],
) -> tuple[int, ...]:
    current = list(schedule)
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(current):
            candidate = tuple(current[:index] + current[index + 1 :])
            if reproduces(candidate):
                current = list(candidate)
                changed = True
            else:
                index += 1
    return tuple(current)
