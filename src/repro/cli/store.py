"""``repro store`` — persistent result-store tools (``verify``)."""

from __future__ import annotations

import argparse


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="store_command", required=True)
    verify_p = sub.add_parser(
        "verify",
        help="re-execute a sample of cached scenarios and compare digests",
    )
    verify_p.add_argument("cache", metavar="DIR", help="cache directory")
    verify_p.add_argument("--sample", type=_nonnegative, default=None,
                          metavar="N",
                          help="re-execute at most N entries "
                               "(deterministic in --seed; default: all)")
    verify_p.add_argument("--seed", type=int, default=0,
                          help="sample-selection seed")
    verify_p.add_argument("--progress", action="store_true",
                          help="print one line per re-executed entry")


def run(args: argparse.Namespace) -> int:
    # Only "verify" exists today; the subparser enforces that.
    from ..store.cache import ResultCache
    from ..store.verify import verify_store

    cache = ResultCache(args.cache)
    if not cache.root.is_dir():
        raise SystemExit(f"no cache directory at {args.cache}")
    on_entry = None
    if args.progress:
        def on_entry(key: str, matched: bool) -> None:
            print(f"  {key[:16]}… {'ok' if matched else 'MISMATCH'}")

    report = verify_store(
        cache, sample=args.sample, seed=args.seed, on_entry=on_entry
    )
    print(f"verify       : {report.describe()}")
    if not report.ok:
        print("integrity    : DRIFT DETECTED")
        return 1
    if report.vacuous and args.sample != 0:
        # Entries exist but every candidate was stale or unreadable: a
        # clean exit here would be a false bill of health.
        print("integrity    : UNVERIFIED (no entry could be re-executed)")
        return 2
    print("integrity    : OK")
    return 0
