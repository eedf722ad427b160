"""``repro feasibility`` — the m-valued feasibility envelope."""

from __future__ import annotations

import argparse

from ..analysis.feasibility import max_values, min_processes


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int)
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--m", type=int)


def run(args: argparse.Namespace) -> int:
    t = args.t
    if args.m is not None:
        n = min_processes(t, args.m)
        print(f"m={args.m} values with t={t} faults needs n >= {n} processes")
        return 0
    if args.n is None:
        raise SystemExit("feasibility needs --n or --m")
    if not args.n > 3 * t:
        raise SystemExit(f"need n > 3t, got n={args.n}, t={t}")
    m = max_values(args.n, t)
    print(f"n={args.n}, t={t}: correct processes may propose at most "
          f"m_max={m} distinct values (n - t > m*t)")
    return 0
