"""``repro sweep`` — run a scenario-matrix sweep."""

from __future__ import annotations

import argparse
from typing import Any

from ..orchestration.axes import AXES
from .merge import print_group_breakdown
from .options import (
    add_matrix_args,
    build_matrix,
    open_telemetry,
    parse_shard,
    print_profile,
    process_run_id,
    run_sweep,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "registered scenario axes (usable with --axis NAME=V1,V2,...):\n"
        + AXES.describe()
        + "\n\nwalkthrough: docs/sweeps.md"
    )
    add_matrix_args(parser)
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="run only the deterministic i-th of N "
                             "round-robin slices of the expanded matrix "
                             "(1-based; the N shards partition the sweep)")
    parser.add_argument("--group-by", default=None, metavar="AXIS[,AXIS]",
                        help="print an extra breakdown grouped by the "
                             "named axes (e.g. k or k,faults)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial; results are "
                             "identical either way)")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="persist one JSON record per scenario")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per finished scenario")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "serial", "parallel"],
                        help="where scenarios run (auto and parallel: "
                             "on --workers processes; serial: in this "
                             "one, whatever --workers says)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="persistent result store: cached scenarios "
                             "are served without re-execution, fresh "
                             "outcomes are written back")
    parser.add_argument("--resume", action="store_true",
                        help="print the store diff (cached vs missing) "
                             "before running; requires --cache")
    parser.add_argument("--profile", action="store_true",
                        help="time the sweep's harness phases and the "
                             "simulator's per-event labels; print the "
                             "breakdown after the sweep (docs/profiling.md)")
    parser.add_argument("--profile-json", default=None, metavar="PATH",
                        help="also write the machine-readable profile "
                             "here (implies --profile)")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="append structured telemetry events (sweep "
                             "started/finished, per-scenario cache "
                             "hit/miss) to this JSONL ledger "
                             "(docs/observability.md)")


def run(args: argparse.Namespace) -> int:
    from ..analysis.aggregation import render_matrix_table
    from ..analysis.tables import format_table
    from ..orchestration.parallel import shard_slice

    try:
        matrix = build_matrix(args)
        total = len(matrix)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if total == 0:
        if not len(matrix.seeds):
            raise SystemExit("the scenario matrix is empty (no seeds: "
                             "--seeds must be >= 1)")
        raise SystemExit("the scenario matrix is empty "
                         "(every cell was infeasible)")
    work: Any = matrix
    if args.shard:
        index, count = parse_shard(args.shard)
        work = shard_slice(matrix, index, count)
        print(f"shard        : {index}/{count} -> {len(work)} of "
              f"{total} scenarios")
        total = len(work)
    cache = None
    if args.resume and not args.cache:
        raise SystemExit("--resume requires --cache DIR")
    if args.cache:
        from ..store.cache import ResultCache

        cache = ResultCache(args.cache)
    if args.resume:
        from ..store.resume import count_cached, describe_counts

        print(f"resume       : {describe_counts(*count_cached(work, cache))}")
    profiler = None
    if args.profile or args.profile_json:
        from ..profiling import SweepProfiler

        profiler = SweepProfiler()
    telemetry = None
    if args.events:
        telemetry = open_telemetry(args.events, process_run_id("sweep"))
        telemetry.sweep_started(total=total)
    done = 0

    def on_result(outcome: Any, cached: bool) -> None:
        # --events and --progress share the sweep's one outcome hook.
        nonlocal done
        if telemetry is not None:
            telemetry.on_result(outcome, cached)
        if args.progress:
            done += 1
            status = "ok" if outcome.decided else (
                "timeout" if outcome.timed_out else "failed"
            )
            print(f"[{done}/{total}] "
                  f"{outcome.spec.cell_id} seed={outcome.spec.seed_index} "
                  f"{status}")

    sweep = run_sweep(
        args.backend, work, args.workers, cache=cache, profiler=profiler,
        on_result=(
            on_result if args.progress or telemetry is not None else None
        ),
        metrics=None if telemetry is None else telemetry.metrics,
    )
    if telemetry is not None:
        telemetry.sweep_finished(sweep)
        telemetry.ledger.close()
    report = sweep.report
    rounds, latency, messages = report.rounds, report.latency, report.messages
    print(format_table(
        ["metric", "mean", "min", "max", "p90"],
        [
            ["rounds", f"{rounds.mean:.2f}", rounds.minimum, rounds.maximum,
             rounds.p90],
            ["virtual latency", f"{latency.mean:.1f}", f"{latency.minimum:.1f}",
             f"{latency.maximum:.1f}", f"{latency.p90:.1f}"],
            ["messages", f"{messages.mean:.0f}", f"{messages.minimum:.0f}",
             f"{messages.maximum:.0f}", f"{messages.p90:.0f}"],
        ],
    ))
    if len(report.cells) > 1:
        print()
        print(render_matrix_table(report))
    print_group_breakdown(sweep.outcomes, args.group_by)
    print(f"\ndecided      : {report.decided_runs}/{report.runs} seeds")
    print(f"values       : {report.values}")
    print(f"safety       : {'OK' if report.all_safe else 'VIOLATED'}")
    print(f"throughput   : {len(sweep.outcomes)} scenarios in "
          f"{sweep.elapsed:.2f}s "
          f"({sweep.scenarios_per_second:.1f}/s, {sweep.workers} worker(s))")
    if sweep.pool_startup_seconds > 0:
        print(f"pool         : spawned in "
              f"{sweep.pool_startup_seconds * 1000.0:.1f}ms "
              f"(warm reuse on subsequent sweeps)")
    if cache is not None:
        print(f"cache        : {sweep.cache_hits} hit(s), "
              f"{sweep.executed} executed -> {args.cache}")
    if args.jsonl:
        path = sweep.write_jsonl(args.jsonl, profiler=profiler)
        print(f"jsonl        : {path}")
    if telemetry is not None:
        print(f"events       : {args.events} "
              f"({telemetry.ledger.emitted} event(s) appended)")
    if profiler is not None:
        print_profile(profiler, args.profile_json)
    return 0 if report.decided_runs == report.runs and report.all_safe else 1
