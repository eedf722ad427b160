"""``repro bounds`` — the Section 5.4 round-bound table for (n, t)."""

from __future__ import annotations

import argparse

from ..analysis.tables import format_table
from ..core.coord import beta, worst_case_round_bound


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--t", type=int, required=True)


def run(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    if not n > 3 * t:
        raise SystemExit(f"need n > 3t, got n={n}, t={t}")
    rows = [
        [k, t + 1 + k, beta(n, t, k), worst_case_round_bound(n, t, k)]
        for k in range(t + 1)
    ]
    print(format_table(
        ["k", "bisource width", "beta = C(n, n-t+k)", "round bound beta*n"],
        rows,
    ))
    return 0
