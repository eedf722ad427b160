"""``repro collect`` — incrementally fold shard JSONLs into one report."""

from __future__ import annotations

import argparse
from typing import Any


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "DIR may be a dispatch directory (manifest.json present:\n"
        "shards/ is watched and the manifest defines completion)\n"
        "or any directory of *.jsonl shards (then --follow needs\n"
        "--expect-shards or --expect-records).  docs: docs/sweeps.md"
    )
    parser.add_argument("dir", metavar="DIR",
                        help="dispatch directory or shard directory")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the merged JSONL here (matrix "
                             "order: byte-identical to the unsharded "
                             "sweep)")
    parser.add_argument("--follow", action="store_true",
                        help="poll until the sweep is complete instead "
                             "of folding once and exiting")
    parser.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS", help="poll interval")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="give up following after this long")
    parser.add_argument("--expect-shards", type=int, default=None,
                        metavar="N",
                        help="completion target: N shard files folded")
    parser.add_argument("--expect-records", type=int, default=None,
                        metavar="N",
                        help="completion target: N distinct scenarios")
    parser.add_argument("--on-conflict", default="error",
                        choices=["error", "first", "last"],
                        help="how to resolve shards that disagree "
                             "about the same scenario")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint file (default: "
                             ".collector.json in the shard directory)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-fold progress lines")
    parser.add_argument("--events", action="store_true",
                        help="append a shard_folded event per fold to "
                             "the directory's events.jsonl ledger")


def run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..orchestration.dispatch import MANIFEST_NAME, SHARD_DIR, DispatchPlan
    from ..store.collector import CollectorError, watch_shards
    from ..store.shards import ShardConflictError

    root = Path(args.dir)
    manifest_root = None
    shard_dir = root
    if (root / MANIFEST_NAME).exists():
        manifest_root = root
        shard_dir = root / SHARD_DIR
    if not shard_dir.is_dir():
        raise SystemExit(f"no shard directory at {shard_dir}")

    ledger = None
    if args.events:
        from ..obs.events import EventLedger

        run_id = ""
        if manifest_root is not None:
            run_id = DispatchPlan.load(manifest_root).run_id
        ledger = EventLedger(
            (manifest_root or root) / "events.jsonl",
            run_id=run_id, worker="collector",
        )

    on_scan = None
    if not args.quiet:
        def on_scan(collector: Any, scan: Any) -> None:
            for name in scan.folded:
                print(f"folded       : {name}")
            if scan.folded:
                print(f"progress     : {collector.describe()}")

    try:
        merged = watch_shards(
            shard_dir, out=args.out, follow=args.follow, poll=args.poll,
            timeout=args.timeout, expect_shards=args.expect_shards,
            expect_records=args.expect_records,
            manifest_root=manifest_root, on_conflict=args.on_conflict,
            checkpoint=args.checkpoint, on_scan=on_scan, ledger=ledger,
        )
    except TimeoutError as exc:
        print(f"timeout      : {exc}")
        return 3
    except (CollectorError, ShardConflictError, ValueError) as exc:
        raise SystemExit(str(exc))
    finally:
        if ledger is not None:
            ledger.close()
    report = merged.report
    print(f"shards       : {len(merged.sources)} file(s), "
          f"{merged.total_records} record(s), "
          f"{merged.duplicates} duplicate(s) dropped")
    print(f"scenarios    : {report.runs}")
    print(f"decided      : {report.decided_runs}/{report.runs} seeds")
    print(f"safety       : {'OK' if report.all_safe else 'VIOLATED'}")
    if args.out:
        print(f"merged jsonl : {args.out}")
    return 0 if report.all_safe else 1
