"""``repro merge`` — fold JSONL sweep shards into one deduplicated report."""

from __future__ import annotations

import argparse
from typing import Any


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("shards", nargs="+", metavar="SHARD",
                        help="JSONL shard files (from sweep --jsonl)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the merged, deduplicated JSONL here")
    parser.add_argument("--on-conflict", default="error",
                        choices=["error", "first", "last"],
                        help="how to resolve shards that disagree about "
                             "the same scenario (default: error out)")
    parser.add_argument("--group-by", default=None, metavar="AXIS[,AXIS]",
                        help="print an extra breakdown of the merged "
                             "outcomes grouped by the named axes")


def print_group_breakdown(outcomes: Any, group_by: str | None) -> None:
    """The ``--group-by`` tail (``sweep`` prints the same one)."""
    if not group_by:
        return
    from ..analysis.aggregation import group_outcomes, render_group_table

    names = [p for p in group_by.split(",") if p]
    try:
        grouped = group_outcomes(outcomes, names)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print()
    print(render_group_table(grouped))


def run(args: argparse.Namespace) -> int:
    from ..analysis.aggregation import render_matrix_table
    from ..store.shards import ShardConflictError, merge_shards

    try:
        merged = merge_shards(args.shards, on_conflict=args.on_conflict)
    except FileNotFoundError as exc:
        raise SystemExit(f"missing shard: {exc.filename or exc}")
    except (ShardConflictError, ValueError) as exc:
        raise SystemExit(str(exc))
    report = merged.report
    print(f"shards       : {len(merged.sources)} file(s), "
          f"{merged.total_records} record(s), "
          f"{merged.duplicates} duplicate(s) dropped")
    print(f"scenarios    : {report.runs}")
    print(f"decided      : {report.decided_runs}/{report.runs} seeds")
    print(f"values       : {report.values}")
    print(f"safety       : {'OK' if report.all_safe else 'VIOLATED'}")
    if report.cells:
        print()
        print(render_matrix_table(report))
    print_group_breakdown(merged.outcomes, args.group_by)
    if args.out:
        path = merged.write_jsonl(args.out)
        print(f"\nmerged jsonl : {path}")
    return 0 if report.all_safe else 1
