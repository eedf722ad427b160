"""``repro profile`` — a sweep under the virtual-time profiler."""

from __future__ import annotations

import argparse

from .options import add_matrix_args, build_matrix, print_profile, run_sweep


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "runs the matrix like `repro sweep`, with the virtual-time\n"
        "profiler armed, prints the breakdown tables and, with\n"
        "--out profile.json, writes a machine-readable profile JSON.\n"
        "how to read one: docs/profiling.md"
    )
    add_matrix_args(parser)
    parser.add_argument("--backend", default="serial",
                        choices=["serial", "parallel"],
                        help="where scenarios run (serial: in this "
                             "process; parallel: on --workers processes, "
                             "whose chunk profiles are merged back, so "
                             "both give the full per-event breakdown)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for --backend parallel")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="run through a result store (profiles the "
                             "cache_key/cache_put phases too)")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="persist the sweep JSONL (profiles the "
                             "jsonl_encode phase)")
    parser.add_argument("--alloc", action="store_true",
                        help="allocation-profiling mode: record net "
                             "allocated-block deltas per phase and per "
                             "sim tag, plus the tracemalloc peak "
                             "(slower; docs/profiling.md)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="machine-readable profile output "
                             "(default: not written)")


def run(args: argparse.Namespace) -> int:
    from ..profiling import SweepProfiler

    try:
        matrix = build_matrix(args)
        total = len(matrix)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if total == 0:
        raise SystemExit("the scenario matrix is empty")
    cache = None
    if args.cache:
        from ..store.cache import ResultCache

        cache = ResultCache(args.cache)
    profiler = SweepProfiler(alloc=args.alloc)
    sweep = run_sweep(
        args.backend, matrix, args.workers, cache=cache, profiler=profiler
    )
    if args.jsonl:
        sweep.write_jsonl(args.jsonl, profiler=profiler)
    print(f"scenarios    : {len(sweep.outcomes)} in {sweep.elapsed:.2f}s "
          f"({sweep.scenarios_per_second:.1f}/s, {sweep.workers} worker(s), "
          f"{sweep.cache_hits} cache hit(s))")
    print_profile(profiler, args.out)
    return 0
