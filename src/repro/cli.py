"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — execute one consensus run and print the outcome;
* ``sweep`` — expand a scenario matrix (sizes × topologies × adversaries
  × value diversity × seeds — plus ``--axis NAME=V1,V2,...`` for *any*
  registered scenario axis: ``k``, per-cell ``faults``, fault
  ``placement``, ``proposals`` profiles, budgets, custom axes; see
  :mod:`repro.orchestration.axes`), run it on the serial,
  cooperative-async or process-pool backend, and print aggregate plus
  per-cell statistics (optionally persisting one JSONL record per
  scenario, regrouped along any axes via ``--group-by``).  With
  ``--cache DIR`` the sweep goes through the persistent result store
  (:mod:`repro.store`): already-executed scenarios are served from the
  cache, only missing cells run, and re-running the same sweep executes
  nothing while printing identical results.  ``--shard I/N`` runs the
  deterministic i-th of N round-robin slices of the expanded matrix —
  the N shard JSONLs merge back into exactly the full sweep;
* ``merge`` — fold JSONL shards from several sweep runs (or machines)
  into one deduplicated report, detecting conflicting duplicates;
  ``--group-by AXIS[,AXIS]`` regroups the merged outcomes along any
  registered axes;
* ``dispatch`` — the distributed work queue
  (:mod:`repro.orchestration.dispatch`): ``plan`` partitions a sweep
  matrix into named shard units behind an atomic JSON manifest;
  ``claim`` runs a worker loop that leases units, executes them on any
  backend (sharing a ``--cache`` store if given) and writes shard
  JSONLs; ``status`` renders the queue.  Leases expire and units are
  retried, so dead workers never wedge the sweep;
* ``collect`` — the incremental collector (:mod:`repro.store.collector`):
  fold a directory of shard JSONLs into one report as they arrive,
  checkpointing after every fold; ``--follow`` polls until the dispatch
  manifest (or an explicit ``--expect-shards``/``--expect-records``
  target) says the sweep is complete, and ``--out`` writes a merged
  JSONL byte-identical to the same sweep run unsharded;
* ``profile`` — run a sweep under the virtual-time profiler
  (:mod:`repro.profiling`) and print where the wall time went: one table
  of per-scenario harness phases (expand, cache keying, build_config,
  simulate, report construction, cache puts, JSONL encode) and one
  breaking ``simulate`` down per simulator event label (protocol tag for
  deliveries, callback for timers/tasks), plus a machine-readable
  ``BENCH_profile.json``.  ``sweep --profile`` attaches the same
  profiler to an ordinary sweep;
* ``store verify`` — integrity scrub: re-execute a deterministic sample
  of cached scenarios on the current kernel and compare digests against
  the stored records (non-zero exit on drift);
* ``events`` — read the fleet's structured event ledger
  (:mod:`repro.obs.events`): ``tail`` prints the last N events, ``query``
  streams with filters (``--since`` / ``--type`` / ``--worker`` /
  ``--run``), both human-readable or ``--json``;
* ``top`` — live fleet view over a dispatch directory
  (:mod:`repro.obs.fleet`): per-worker progress, throughput, ETA, and a
  STALE flag for leases whose heartbeat went quiet;
* ``trace`` — export a Chrome/Perfetto Trace Event Format timeline
  (:mod:`repro.obs.chrometrace`): of one consensus run (default), of a
  ledger slice (``--ledger``) or of a profile (``--from-profile``);
* ``bounds`` — print the Section 5.4 round-bound table for (n, t);
* ``feasibility`` — print the m-valued feasibility envelope.

Every command is deterministic given ``--seed`` (sweeps derive one child
seed per scenario, so results are independent of worker count and
scheduling) and prints plain text; ``run --json`` emits a
machine-readable summary instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .analysis.aggregation import (
    group_outcomes,
    render_group_table,
    render_matrix_table,
)
from .analysis.combinatorics import beta, worst_case_round_bound
from .analysis.feasibility import max_values, min_processes
from .core.values import BOT
from .net.topology import fully_asynchronous, fully_timely
from .orchestration.config import RunConfig
from .orchestration.axes import AXES
from .orchestration.matrix import ADVERSARY_KINDS, ScenarioMatrix
from .orchestration.parallel import (
    shard_slice,
    sweep_async,
    sweep_parallel,
    sweep_serial,
)
from .orchestration.runner import run_consensus
from .orchestration.sweeps import format_table, standard_proposals

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimal Synchrony for Byzantine Consensus — reproduction CLI",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="documentation: docs/index.md (architecture map), "
               "docs/sweeps.md (sweeps, sharding, dispatch/collect),\n"
               "docs/store.md (result store), docs/kernel.md "
               "(simulation kernel)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one consensus run")
    _add_system_args(run_p)
    run_p.add_argument("--json", action="store_true",
                       help="emit a JSON summary instead of text")

    check_p = sub.add_parser(
        "check",
        help="exhaustively enumerate small-model schedules",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="enumerates ALL delivery orders of a small model (instant\n"
               "channels, explicit choice points) instead of sampling\n"
               "seeds; dedups visited states, prunes commuting orders\n"
               "(sleep sets), checks invariants after every event, and\n"
               "shrinks any violation to a minimal replayable schedule.\n"
               "replay one with --replay or `repro sweep --axis\n"
               "schedule=...`.  walkthrough: docs/checking.md",
    )
    check_p.add_argument("--n", type=int, default=2, help="number of processes")
    check_p.add_argument("--t", type=int, default=0, help="fault threshold")
    check_p.add_argument("--values", default="a",
                         help="comma-separated proposal values (round-robin)")
    check_p.add_argument(
        "--adversary", default="none",
        help="KIND or KIND:ARG (kinds: "
             f"{', '.join(sorted(ADVERSARY_KINDS))}; 'none' for none)",
    )
    check_p.add_argument("--faults", type=int, default=None,
                         help="number of Byzantine processes (default: t)")
    check_p.add_argument("--variant", default="standard",
                         choices=["standard", "bot"])
    check_p.add_argument("--k", type=int, default=0, help="Section 5.4 knob")
    check_p.add_argument("--max-rounds", type=int, default=1,
                         help="consensus round cap for the model "
                              "(default: %(default)s — keeps the schedule "
                              "space finite and small)")
    check_p.add_argument("--fifo", action="store_true",
                         help="model FIFO channels: only per-channel head "
                              "deliveries branch, which collapses the "
                              "schedule space enough to exhaust it")
    check_p.add_argument("--mutant", default=None, metavar="NAME",
                         help="check a seeded protocol mutant instead "
                              "(its trigger scenario replaces the model "
                              "flags above); 'list' prints the registry")
    check_p.add_argument("--budget", type=int, default=None, metavar="N",
                         help="stop after N schedule executions "
                              "(default: unbounded — exhaust the space)")
    check_p.add_argument("--depth", type=int, default=None, metavar="D",
                         help="per-run choice-point ceiling")
    check_p.add_argument("--states", type=int, default=None, metavar="N",
                         help="distinct-fingerprint ceiling")
    check_p.add_argument("--max-steps", type=int, default=None,
                         metavar="N", help="per-run event ceiling "
                         "(livelock guard)")
    check_p.add_argument("--no-prune", action="store_true",
                         help="disable sleep-set partial-order pruning")
    check_p.add_argument("--no-dedup", action="store_true",
                         help="disable visited-state deduplication")
    check_p.add_argument("--no-minimize", action="store_true",
                         help="report the raw violating schedule without "
                              "shrinking it")
    check_p.add_argument("--shard", default=None, metavar="I/N",
                         help="explore only the i-th of N schedule-prefix "
                              "shards (1-based; shards partition the "
                              "space by prefixes of --shard-depth)")
    check_p.add_argument("--shard-depth", type=int, default=2, metavar="D",
                         help="prefix depth of the shard partition "
                              "(default: %(default)s)")
    check_p.add_argument("--replay", default=None, metavar="SCHEDULE",
                         help="replay a counterexample ('-'-joined choice "
                              "indices) through the standard runner "
                              "instead of exploring")
    check_p.add_argument("--progress", action="store_true",
                         help="print a progress line per batch of "
                              "executions")
    check_p.add_argument("--events", default=None, metavar="PATH",
                         help="append check lifecycle events (started/"
                              "progress/finished, explored-states "
                              "throughput) to this JSONL ledger")
    check_p.add_argument("--json", action="store_true",
                         help="emit a JSON summary instead of text")
    check_p.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON summary here")

    sweep_p = sub.add_parser(
        "sweep", help="run a scenario-matrix sweep",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="registered scenario axes (usable with --axis NAME=V1,V2,...):\n"
               + AXES.describe()
               + "\n\nwalkthrough: docs/sweeps.md",
    )
    _add_matrix_args(sweep_p)
    sweep_p.add_argument("--shard", default=None, metavar="I/N",
                         help="run only the deterministic i-th of N "
                              "round-robin slices of the expanded matrix "
                              "(1-based; the N shards partition the sweep)")
    sweep_p.add_argument("--group-by", default=None, metavar="AXIS[,AXIS]",
                         help="print an extra breakdown grouped by the "
                              "named axes (e.g. k or k,faults)")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial; results are "
                              "identical either way)")
    sweep_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="persist one JSON record per scenario")
    sweep_p.add_argument("--progress", action="store_true",
                         help="print one line per finished scenario")
    sweep_p.add_argument("--backend", default="auto",
                         choices=["auto", "serial", "async", "parallel"],
                         help="execution backend (auto: parallel when "
                              "--workers > 1, else serial; async is the "
                              "cooperative in-process backend)")
    sweep_p.add_argument("--cache", default=None, metavar="DIR",
                         help="persistent result store: cached scenarios "
                              "are served without re-execution, fresh "
                              "outcomes are written back")
    sweep_p.add_argument("--resume", action="store_true",
                         help="print the store diff (cached vs missing) "
                              "before running; requires --cache")
    sweep_p.add_argument("--profile", action="store_true",
                         help="time the sweep's harness phases and the "
                              "simulator's per-event labels; print the "
                              "breakdown after the sweep (docs/profiling.md)")
    sweep_p.add_argument("--profile-json", default=None, metavar="PATH",
                         help="also write the machine-readable profile "
                              "here (implies --profile)")
    sweep_p.add_argument("--events", default=None, metavar="PATH",
                         help="append structured telemetry events (sweep "
                              "started/finished, per-scenario cache "
                              "hit/miss) to this JSONL ledger "
                              "(docs/observability.md)")

    profile_p = sub.add_parser(
        "profile",
        help="profile a sweep: per-phase / per-tag wall-time breakdown",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="runs the matrix like `repro sweep`, with the virtual-time\n"
               "profiler armed, prints the breakdown tables and writes a\n"
               "machine-readable profile JSON.  how to read one:\n"
               "docs/profiling.md",
    )
    _add_matrix_args(profile_p)
    profile_p.add_argument("--backend", default="serial",
                           choices=["serial", "async", "parallel"],
                           help="execution backend (serial gives the full "
                                "per-event sim breakdown; parallel only "
                                "times the parent-side phases plus worker "
                                "chunk wall time)")
    profile_p.add_argument("--workers", type=int, default=None,
                           help="pool size for --backend parallel")
    profile_p.add_argument("--cache", default=None, metavar="DIR",
                           help="run through a result store (profiles the "
                                "cache_key/cache_put phases too)")
    profile_p.add_argument("--jsonl", default=None, metavar="PATH",
                           help="persist the sweep JSONL (profiles the "
                                "jsonl_encode phase)")
    profile_p.add_argument("--alloc", action="store_true",
                           help="allocation-profiling mode: record net "
                                "allocated-block deltas per phase and per "
                                "sim tag, plus the tracemalloc peak "
                                "(slower; docs/profiling.md)")
    profile_p.add_argument("--out", default="BENCH_profile.json",
                           metavar="PATH",
                           help="machine-readable profile output "
                                "(default: %(default)s)")

    merge_p = sub.add_parser(
        "merge", help="merge JSONL sweep shards into one report"
    )
    merge_p.add_argument("shards", nargs="+", metavar="SHARD",
                         help="JSONL shard files (from sweep --jsonl)")
    merge_p.add_argument("--out", default=None, metavar="PATH",
                         help="write the merged, deduplicated JSONL here")
    merge_p.add_argument("--on-conflict", default="error",
                         choices=["error", "first", "last"],
                         help="how to resolve shards that disagree about "
                              "the same scenario (default: error out)")
    merge_p.add_argument("--group-by", default=None, metavar="AXIS[,AXIS]",
                         help="print an extra breakdown of the merged "
                              "outcomes grouped by the named axes")

    dispatch_p = sub.add_parser(
        "dispatch", help="distributed sweep work queue (plan/claim/status)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="a dispatch directory holds manifest.json (the work queue)\n"
               "and shards/ (one JSONL per executed unit); fold the shards\n"
               "with `repro collect DIR`.  walkthrough: docs/sweeps.md",
    )
    dispatch_sub = dispatch_p.add_subparsers(
        dest="dispatch_command", required=True
    )
    plan_p = dispatch_sub.add_parser(
        "plan", help="partition a sweep matrix into claimable shard units"
    )
    _add_matrix_args(plan_p)
    plan_p.add_argument("--dir", required=True, metavar="DIR",
                        help="dispatch directory (manifest + shards)")
    plan_p.add_argument("--units", type=int, default=4, metavar="N",
                        help="shard units to partition the matrix into "
                             "(clamped to the scenario count)")
    plan_p.add_argument("--lease", type=float, default=300.0,
                        metavar="SECONDS",
                        help="claim lease; an expired lease makes the "
                             "unit claimable again")
    plan_p.add_argument("--max-attempts", type=int, default=3, metavar="K",
                        help="total claim attempts per unit before it "
                             "is abandoned as exhausted")
    claim_p = dispatch_sub.add_parser(
        "claim", help="worker loop: lease units, execute, write shards"
    )
    claim_p.add_argument("dir", metavar="DIR", help="dispatch directory")
    claim_p.add_argument("--worker", default=None, metavar="NAME",
                         help="worker identity recorded on leases "
                              "(default: host-pid)")
    claim_p.add_argument("--backend", default="serial",
                         choices=["serial", "async", "parallel"],
                         help="execution backend for each claimed unit")
    claim_p.add_argument("--workers", type=int, default=None,
                         help="process-pool size for --backend parallel")
    claim_p.add_argument("--cache", default=None, metavar="DIR",
                         help="shared result store: cached scenarios are "
                              "served without re-execution")
    claim_p.add_argument("--max-units", type=int, default=None, metavar="N",
                         help="stop after completing N units "
                              "(default: drain the queue)")
    claim_p.add_argument("--heartbeat", type=float, default=None,
                         metavar="SECONDS",
                         help="progress-heartbeat interval; each beat "
                              "renews the lease (default: lease/4; "
                              "0 disables)")
    claim_p.add_argument("--no-events", action="store_true",
                         help="do not append unit lifecycle events to "
                              "DIR/events.jsonl")
    status_p = dispatch_sub.add_parser(
        "status", help="render the work queue (exit 0 once all units done)"
    )
    status_p.add_argument("dir", metavar="DIR", help="dispatch directory")
    status_p.add_argument("--reclaim", action="store_true",
                         help="release every expired lease back to "
                              "pending (stale-state reconciliation) "
                              "before rendering")

    collect_p = sub.add_parser(
        "collect",
        help="incrementally fold shard JSONLs into one merged report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="DIR may be a dispatch directory (manifest.json present:\n"
               "shards/ is watched and the manifest defines completion)\n"
               "or any directory of *.jsonl shards (then --follow needs\n"
               "--expect-shards or --expect-records).  docs: docs/sweeps.md",
    )
    collect_p.add_argument("dir", metavar="DIR",
                           help="dispatch directory or shard directory")
    collect_p.add_argument("--out", default=None, metavar="PATH",
                           help="write the merged JSONL here (matrix "
                                "order: byte-identical to the unsharded "
                                "sweep)")
    collect_p.add_argument("--follow", action="store_true",
                           help="poll until the sweep is complete instead "
                                "of folding once and exiting")
    collect_p.add_argument("--poll", type=float, default=0.5,
                           metavar="SECONDS", help="poll interval")
    collect_p.add_argument("--timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="give up following after this long")
    collect_p.add_argument("--expect-shards", type=int, default=None,
                           metavar="N",
                           help="completion target: N shard files folded")
    collect_p.add_argument("--expect-records", type=int, default=None,
                           metavar="N",
                           help="completion target: N distinct scenarios")
    collect_p.add_argument("--on-conflict", default="error",
                           choices=["error", "first", "last"],
                           help="how to resolve shards that disagree "
                                "about the same scenario")
    collect_p.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="checkpoint file (default: "
                                ".collector.json in the shard directory)")
    collect_p.add_argument("--quiet", action="store_true",
                           help="suppress the per-fold progress lines")
    collect_p.add_argument("--events", action="store_true",
                           help="append a shard_folded event per fold to "
                                "the directory's events.jsonl ledger")

    store_p = sub.add_parser("store", help="persistent result-store tools")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    verify_p = store_sub.add_parser(
        "verify",
        help="re-execute a sample of cached scenarios and compare digests",
    )
    verify_p.add_argument("cache", metavar="DIR", help="cache directory")
    def nonnegative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    verify_p.add_argument("--sample", type=nonnegative, default=None,
                          metavar="N",
                          help="re-execute at most N entries "
                               "(deterministic in --seed; default: all)")
    verify_p.add_argument("--seed", type=int, default=0,
                          help="sample-selection seed")
    verify_p.add_argument("--progress", action="store_true",
                          help="print one line per re-executed entry")

    events_p = sub.add_parser(
        "events", help="read the structured fleet event ledger",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="SOURCE is a ledger JSONL file, or a dispatch directory\n"
               "(its events.jsonl is read).  schema: docs/observability.md",
    )
    events_sub = events_p.add_subparsers(dest="events_command", required=True)
    for sub_name, sub_help in (
        ("tail", "print the last N matching events"),
        ("query", "stream every matching event, oldest first"),
    ):
        ev_p = events_sub.add_parser(sub_name, help=sub_help)
        ev_p.add_argument("source", metavar="SOURCE",
                          help="ledger file or dispatch directory")
        if sub_name == "tail":
            ev_p.add_argument("-n", type=int, default=10, metavar="N",
                              help="events to print (default: %(default)s)")
        ev_p.add_argument("--since", type=float, default=None,
                          metavar="SECONDS",
                          help="only events from the last SECONDS seconds")
        ev_p.add_argument("--type", action="append", default=None,
                          dest="types", metavar="TYPE",
                          help="only this event type (repeatable)")
        ev_p.add_argument("--worker", default=None, metavar="NAME",
                          help="only events from this worker")
        ev_p.add_argument("--run", default=None, metavar="RUN_ID",
                          help="only events from this dispatch run")
        ev_p.add_argument("--json", action="store_true",
                          help="print raw JSON records instead of the "
                               "human-readable form")

    top_p = sub.add_parser(
        "top", help="live fleet view over a dispatch directory"
    )
    top_p.add_argument("dir", metavar="DIR", help="dispatch directory")
    top_p.add_argument("--once", action="store_true",
                       help="render one frame and exit (CI-friendly)")
    top_p.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh interval (default: %(default)s)")
    top_p.add_argument("--stale", type=float, default=None,
                       metavar="SECONDS",
                       help="flag workers whose heartbeat is older than "
                            "this as STALE (default: lease/2)")

    trace_p = sub.add_parser(
        "trace",
        help="export a Chrome/Perfetto trace (run, ledger or profile)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="default: execute one consensus run (same knobs as `repro\n"
               "run`) with tracing on and export its timeline.  --ledger\n"
               "exports a fleet event-ledger slice instead; --from-profile\n"
               "exports a BENCH_profile.json phase breakdown.  load the\n"
               "output at https://ui.perfetto.dev — docs/observability.md",
    )
    _add_system_args(trace_p)
    trace_p.add_argument("--ledger", default=None, metavar="SOURCE",
                         help="export this event ledger (file or dispatch "
                              "directory) instead of running")
    trace_p.add_argument("--from-profile", default=None, metavar="PATH",
                         help="export this BENCH_profile.json instead of "
                              "running")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="trace output path (default: %(default)s)")
    trace_p.add_argument("--label", default=None, metavar="NAME",
                         help="top-level process label in the trace")

    bounds_p = sub.add_parser("bounds", help="Section 5.4 round-bound table")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--t", type=int, required=True)

    feas_p = sub.add_parser("feasibility", help="m-valued feasibility envelope")
    feas_p.add_argument("--n", type=int)
    feas_p.add_argument("--t", type=int, required=True)
    feas_p.add_argument("--m", type=int)
    return parser


def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    """Arguments defining a scenario matrix (shared by ``sweep`` and
    ``dispatch plan``)."""
    _add_system_args(parser)
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per grid cell")
    parser.add_argument("--grid", default=None, metavar="N:T,N:T,...",
                        help="system sizes to sweep (default: --n/--t)")
    parser.add_argument("--topologies", default=None, metavar="KIND,...",
                        help="topology grid (minimal/timely/async; "
                             "default: --topology)")
    parser.add_argument("--adversaries", default=None, metavar="KIND[:ARG],...",
                        help="adversary grid (default: --adversary)")
    parser.add_argument("--value-counts", default=None, metavar="M,...",
                        help="value-diversity grid, clamped to the "
                             "feasibility bound (default: len(--values))")
    parser.add_argument("--axis", action="append", default=None,
                        metavar="NAME=V1,V2,...", dest="axis",
                        help="grid over any registered scenario axis "
                             "(repeatable; 'list' prints the vocabulary), "
                             "e.g. --axis k=0,1,2 --axis faults=0,1 "
                             "--axis placement=tail,head,spread")


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4, help="number of processes")
    parser.add_argument("--t", type=int, default=1, help="fault threshold")
    parser.add_argument("--values", default="a,b",
                        help="comma-separated proposal values (round-robin)")
    parser.add_argument(
        "--adversary", default="crash",
        help="KIND or KIND:ARG, e.g. two_faced:evil "
             f"(kinds: {', '.join(sorted(ADVERSARY_KINDS))}; 'none' for none)",
    )
    parser.add_argument("--faults", type=int, default=None,
                        help="number of Byzantine processes (default: t)")
    parser.add_argument("--topology", default="minimal",
                        choices=["minimal", "timely", "async"])
    parser.add_argument("--variant", default="standard",
                        choices=["standard", "bot"])
    parser.add_argument("--k", type=int, default=0, help="Section 5.4 knob")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-time", type=float, default=1_000_000.0)


def _build_config(args: argparse.Namespace, seed: int) -> RunConfig:
    n, t = args.n, args.t
    faults = t if args.faults is None else args.faults
    adversaries: dict[int, Any] = {}
    if args.adversary != "none" and faults > 0:
        kind, _, arg = args.adversary.partition(":")
        if kind not in ADVERSARY_KINDS:
            raise SystemExit(f"unknown adversary kind {kind!r}")
        for pid in range(n - faults + 1, n + 1):
            adversaries[pid] = ADVERSARY_KINDS[kind](arg)
    correct = [pid for pid in range(1, n + 1) if pid not in adversaries]
    values = [v for v in args.values.split(",") if v]
    proposals = standard_proposals(correct, values)
    topology = None
    if args.topology == "timely":
        topology = fully_timely(n)
    elif args.topology == "async":
        topology = fully_asynchronous(n)
    return RunConfig(
        n=n, t=t, proposals=proposals, adversaries=adversaries,
        topology=topology, variant=args.variant, k=args.k, seed=seed,
        max_time=args.max_time,
    )


def _render(value: Any) -> str:
    return "⊥" if value is BOT else repr(value)


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_consensus(_build_config(args, args.seed))
    if args.json:
        payload = {
            "decisions": {pid: _render(v) for pid, v in result.decisions.items()},
            "all_decided": result.all_decided,
            "timed_out": result.timed_out,
            "rounds": result.rounds,
            "messages_sent": result.messages_sent,
            "finished_at": result.finished_at,
            "invariants_ok": result.invariants.ok,
        }
        print(json.dumps(payload, indent=2))
        return 0 if result.all_decided else 1
    print(f"decided      : {result.all_decided}"
          + ("" if result.all_decided else " (budget hit)"))
    if result.decisions:
        print(f"value        : {_render(result.decided_value)}")
    print(f"rounds       : {result.rounds}")
    print(f"messages     : {result.messages_sent}")
    print(f"virtual time : {result.finished_at:.1f}")
    print(f"safety       : {'OK' if result.invariants.ok else 'VIOLATED'}")
    return 0 if result.all_decided else 1


def _check_config(args: argparse.Namespace) -> RunConfig:
    """The model `repro check` explores (mutants supply their own)."""
    n, t = args.n, args.t
    faults = t if args.faults is None else args.faults
    adversaries: dict[int, Any] = {}
    if args.adversary != "none" and faults > 0:
        kind, _, arg = args.adversary.partition(":")
        if kind not in ADVERSARY_KINDS:
            raise SystemExit(f"unknown adversary kind {kind!r}")
        for pid in range(n - faults + 1, n + 1):
            adversaries[pid] = ADVERSARY_KINDS[kind](arg)
    correct = [pid for pid in range(1, n + 1) if pid not in adversaries]
    values = [v for v in args.values.split(",") if v]
    proposals = standard_proposals(correct, values)
    return RunConfig(
        n=n, t=t, proposals=proposals, adversaries=adversaries,
        variant=args.variant, k=args.k, max_rounds=args.max_rounds,
        fifo=args.fifo,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    import contextlib
    import time

    from .analysis.progress import render_progress
    from .checking import (
        Explorer,
        ScheduleDivergence,
        schedule_prefix_roots,
        shard_roots_slice,
    )
    from .checking.harness import DEFAULT_MAX_STEPS
    from .checking.mutants import MUTANTS, apply_mutant
    from .errors import SimulationError

    if args.mutant == "list":
        for mutant in MUTANTS.values():
            print(f"{mutant.name:20s} {mutant.description} "
                  f"(expects: {', '.join(sorted(mutant.expected_checks))})")
        return 0

    guard: Any = contextlib.nullcontext()
    if args.mutant is not None:
        if args.mutant not in MUTANTS:
            raise SystemExit(
                f"unknown mutant {args.mutant!r}; available: "
                f"{', '.join(sorted(MUTANTS))} (or 'list')"
            )
        guard = apply_mutant(args.mutant)
        config = MUTANTS[args.mutant].scenario()
    else:
        config = _check_config(args)
    max_steps = args.max_steps or DEFAULT_MAX_STEPS

    if args.replay is not None:
        import dataclasses

        try:
            schedule = tuple(
                int(p) for p in args.replay.split("-") if p != ""
            )
        except ValueError:
            raise SystemExit(f"bad --replay {args.replay!r} "
                             "(expected '-'-joined indices, e.g. 0-2-1)")
        replay_config = dataclasses.replace(config, check_schedule=schedule)
        with guard:
            try:
                result = run_consensus(replay_config, check_invariants=False)
            except (ScheduleDivergence, SimulationError) as exc:
                raise SystemExit(f"replay failed: {exc}")
        print(f"schedule     : {'-'.join(map(str, schedule)) or '(empty)'}")
        print(f"decided      : {result.all_decided}")
        for pid in sorted(result.decisions):
            print(f"  p{pid} -> {_render(result.decisions[pid])}")
        print(f"safety       : "
              f"{'OK' if result.invariants.ok else 'VIOLATED'}")
        for violation in result.invariants.violations:
            print(f"  {violation}")
        return 0 if result.invariants.ok else 1

    ledger = None
    if args.events:
        import os as _os

        from .obs import EVENT_CHECK_STARTED, EventLedger

        ledger = EventLedger(
            args.events,
            run_id=f"check-{int(time.time())}-{_os.getpid():x}",
        )
        ledger.emit(
            EVENT_CHECK_STARTED,
            n=config.n, t=config.t, mutant=args.mutant,
            budget=args.budget, depth=args.depth, shard=args.shard,
        )

    roots: tuple[tuple[int, ...], ...] = ((),)
    shard_note = ""
    with guard:
        if args.shard:
            index, count = _parse_shard(args.shard)
            partition = schedule_prefix_roots(
                config, args.shard_depth, max_steps=max_steps
            )
            roots = shard_roots_slice(partition, index - 1, count)
            shard_note = (f"{index}/{count} -> {len(roots)} of "
                          f"{len(partition.roots)} prefix root(s)")
            if not roots:
                print(f"shard        : {shard_note} (nothing to explore)")
                if ledger is not None:
                    ledger.close()
                return 0

        started = time.monotonic()
        progress = None
        if args.progress or ledger is not None:
            from .obs import EVENT_CHECK_PROGRESS

            def progress(stats: Any, done: bool) -> None:
                if args.progress and not done:
                    bar = render_progress(stats.executions, args.budget or 0)
                    print(f"explored     : {bar} states={stats.states} "
                          f"deduped={stats.deduped} pruned={stats.pruned}",
                          flush=True)
                if ledger is not None and not done:
                    ledger.emit(
                        EVENT_CHECK_PROGRESS,
                        executions=stats.executions, states=stats.states,
                        deduped=stats.deduped, pruned=stats.pruned,
                    )

        explorer = Explorer(
            config,
            max_executions=args.budget,
            max_depth=args.depth,
            max_states=args.states,
            max_steps=max_steps,
            prune=not args.no_prune,
            dedup=not args.no_dedup,
            minimize=not args.no_minimize,
            progress=progress,
            roots=roots,
        )
        result = explorer.run()
    elapsed = max(time.monotonic() - started, 1e-9)
    stats = result.stats

    states_per_second = stats.states / elapsed
    if ledger is not None:
        from .obs import EVENT_CHECK_FINISHED, MetricsRegistry

        metrics = MetricsRegistry()
        metrics.counter(
            "check.states", help="distinct states fingerprinted"
        ).inc(stats.states)
        metrics.counter(
            "check.executions", help="schedules executed"
        ).inc(stats.executions)
        ledger.emit(
            EVENT_CHECK_FINISHED,
            verdict=result.verdict, exhausted=result.exhausted,
            elapsed=elapsed, states_per_second=states_per_second,
            counterexample=(
                None if result.counterexample is None
                else list(result.counterexample)
            ),
            **stats.as_dict(),
        )
        ledger.close()

    if args.json or args.out:
        payload = result.as_dict()
        payload["elapsed"] = elapsed
        payload["states_per_second"] = states_per_second
        if shard_note:
            payload["shard"] = shard_note
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            from .store.atomic import atomic_write_text

            atomic_write_text(args.out, text + "\n")
        if args.json:
            print(text)
            return 0 if result.verdict == "ok" else 1

    if shard_note:
        print(f"shard        : {shard_note}")
    print(f"verdict      : {result.verdict.upper()}"
          + ("" if result.exhausted or result.verdict == "violation"
             else " (budget hit before exhaustion)"))
    print(f"exhausted    : {result.exhausted}")
    print(f"executions   : {stats.executions} "
          f"({stats.completed} complete, {stats.quiescent} quiescent, "
          f"{stats.deduped} deduped, {stats.pruned + 0} pruned-out)")
    print(f"states       : {stats.states} distinct "
          f"({states_per_second:.0f}/s)")
    print(f"choice pts   : {stats.choice_points} "
          f"(max depth {stats.max_depth})")
    print(f"pruned       : {stats.pruned} slept branch(es)")
    print(f"sim steps    : {stats.steps}")
    print(f"fingerprints : {result.fingerprints} state walk(s)")
    if result.minimized:
        print(f"minimizer    : {result.minimize_replays} replay(s)")
    print(f"elapsed      : {elapsed:.2f}s")
    if result.verdict == "violation":
        assert result.counterexample is not None
        schedule_text = "-".join(map(str, result.counterexample))
        print(f"counterexample: "
              f"{schedule_text or '(empty — violates on every schedule)'}"
              + (" (minimal)" if result.minimized else " (raw)"))
        for line in result.violations:
            print(f"  {line}")
        replay_flags = f"--replay {schedule_text}" if schedule_text else \
            "--replay ''"
        mutant_flag = f" --mutant {args.mutant}" if args.mutant else ""
        print(f"replay with  : repro check{mutant_flag} {replay_flags}")
        return 1
    return 0


def _parse_grid(text: str) -> list[tuple[int, int]]:
    sizes = []
    for part in text.split(","):
        if not part:
            continue
        try:
            n, _, t = part.partition(":")
            sizes.append((int(n), int(t)))
        except ValueError:
            raise SystemExit(f"bad grid entry {part!r} (expected N:T)")
    if not sizes:
        raise SystemExit("empty --grid")
    return sizes


def _parse_axes(entries: Sequence[str]) -> dict[str, list[Any]]:
    """Parse repeated ``--axis NAME=V1,V2,...`` flags via the registry.

    Each axis's own parser handles its tokens (``k=0,1`` parses ints,
    ``size=4:1,7:2`` parses pairs, ``faults=none,0,1`` understands the
    full-budget sentinel).  ``--axis list`` prints the vocabulary.
    """
    axes: dict[str, list[Any]] = {}
    for entry in entries:
        if entry in ("list", "help"):
            print(f"registered axes:\n{AXES.describe()}")
            raise SystemExit(0)
        name, sep, rest = entry.partition("=")
        if not sep or not rest:
            raise SystemExit(
                f"bad --axis entry {entry!r} (expected NAME=V1,V2,...)"
            )
        try:
            axis = AXES.resolve(name)
        except ValueError as exc:
            raise SystemExit(str(exc))
        values = axes.setdefault(axis.name, [])
        for token in rest.split(","):
            if not token:
                continue
            try:
                values.append(axis.canonical(axis.parse(token)))
            except (ValueError, TypeError) as exc:
                raise SystemExit(
                    f"bad value {token!r} for axis {axis.name!r}: {exc}"
                )
        if not values:
            raise SystemExit(f"empty value list for axis {axis.name!r}")
    return axes


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` (1-based)."""
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(f"bad --shard {text!r} (expected I/N, e.g. 2/4)")
    if count < 1 or not 1 <= index <= count:
        raise SystemExit(
            f"bad --shard {text!r}: need 1 <= I <= N"
        )
    return index, count


def _build_matrix(args: argparse.Namespace) -> ScenarioMatrix:
    sizes = _parse_grid(args.grid) if args.grid else [(args.n, args.t)]
    topologies = (
        [p for p in args.topologies.split(",") if p]
        if args.topologies else [args.topology]
    )
    adversaries = (
        [p for p in args.adversaries.split(",") if p]
        if args.adversaries else [args.adversary]
    )
    value_pool = [v for v in args.values.split(",") if v]
    if args.value_counts:
        value_counts = [int(p) for p in args.value_counts.split(",") if p]
        if value_counts and max(value_counts) > len(value_pool):
            # The requested diversity outgrew --values: fall back to
            # generated v0..v(m-1) proposals rather than silently
            # shrinking the grid.
            value_pool = None
    else:
        value_counts = [len(value_pool)]
    return ScenarioMatrix(
        sizes=sizes,
        topologies=topologies,
        adversaries=adversaries,
        value_counts=value_counts,
        value_pool=value_pool,
        seeds=range(args.seeds),
        faults=args.faults,
        variant=args.variant,
        k=args.k,
        base_seed=args.seed,
        max_time=args.max_time,
        axes=_parse_axes(args.axis) if getattr(args, "axis", None) else None,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        matrix = _build_matrix(args)
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
        index, count = _parse_shard(args.shard)
        work = shard_slice(matrix, index, count)
        print(f"shard        : {index}/{count} -> {len(work)} of "
              f"{total} scenarios")
        total = len(work)
    progress = None
    if args.progress:
        state = {"done": 0}

        def progress(outcome: Any) -> None:
            state["done"] += 1
            status = "ok" if outcome.decided else (
                "timeout" if outcome.timed_out else "failed"
            )
            print(f"[{state['done']}/{total}] "
                  f"{outcome.spec.cell_id} seed={outcome.spec.seed_index} "
                  f"{status}")

    cache = None
    if args.resume and not args.cache:
        raise SystemExit("--resume requires --cache DIR")
    if args.cache:
        from .store import ResultCache

        cache = ResultCache(args.cache)
    if args.resume:
        from .store import count_cached, describe_counts

        print(f"resume       : {describe_counts(*count_cached(work, cache))}")
    profiler = None
    if args.profile or args.profile_json:
        from .profiling import SweepProfiler

        profiler = SweepProfiler()
    telemetry = None
    if args.events:
        import os as _os
        import time as _time

        from .obs import EventLedger, MetricsRegistry, SweepTelemetry

        telemetry = SweepTelemetry(
            ledger=EventLedger(
                args.events,
                run_id=f"sweep-{int(_time.time())}-{_os.getpid():x}",
            ),
            metrics=MetricsRegistry(),
        )
        telemetry.sweep_started(total=total)
    backend = args.backend
    if backend == "auto":
        backend = "parallel" if args.workers > 1 else "serial"
    if backend == "serial":
        sweep = sweep_serial(
            work, on_result=progress, cache=cache, profiler=profiler,
            observer=telemetry,
        )
    elif backend == "async":
        sweep = sweep_async(
            work, on_result=progress, cache=cache, profiler=profiler,
            observer=telemetry,
        )
    else:
        sweep = sweep_parallel(
            work, workers=args.workers, on_result=progress, cache=cache,
            profiler=profiler, observer=telemetry,
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
    _print_group_breakdown(sweep.outcomes, args.group_by)
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
              f"({telemetry.scenarios + 2} event(s) appended)")
    if profiler is not None:
        print()
        print(profiler.render())
        print(f"\ncoverage     : phases explain "
              f"{100.0 * profiler.coverage():.1f}% of measured wall time")
        if args.profile_json:
            _write_profile_json(profiler, args.profile_json)
            print(f"profile json : {args.profile_json}")
    return 0 if report.decided_runs == report.runs and report.all_safe else 1


def _write_profile_json(profiler: Any, path: str) -> None:
    """Persist one profiler snapshot (atomically, like every artifact)."""
    from .store.atomic import atomic_write_text

    atomic_write_text(
        path, json.dumps(profiler.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profiling import SweepProfiler

    try:
        matrix = _build_matrix(args)
        total = len(matrix)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if total == 0:
        raise SystemExit("the scenario matrix is empty")
    cache = None
    if args.cache:
        from .store import ResultCache

        cache = ResultCache(args.cache)
    profiler = SweepProfiler(alloc=args.alloc)
    if args.backend == "serial":
        sweep = sweep_serial(matrix, cache=cache, profiler=profiler)
    elif args.backend == "async":
        sweep = sweep_async(matrix, cache=cache, profiler=profiler)
    else:
        sweep = sweep_parallel(
            matrix, workers=args.workers, cache=cache, profiler=profiler
        )
    if args.jsonl:
        sweep.write_jsonl(args.jsonl, profiler=profiler)
    print(f"scenarios    : {len(sweep.outcomes)} in {sweep.elapsed:.2f}s "
          f"({sweep.scenarios_per_second:.1f}/s, {sweep.workers} worker(s), "
          f"{sweep.cache_hits} cache hit(s))")
    print()
    print(profiler.render())
    print(f"\ncoverage     : phases explain "
          f"{100.0 * profiler.coverage():.1f}% of measured wall time")
    _write_profile_json(profiler, args.out)
    print(f"profile json : {args.out}")
    return 0


def _print_group_breakdown(outcomes: Any, group_by: str | None) -> None:
    """Shared ``--group-by`` tail of the sweep and merge commands."""
    if not group_by:
        return
    names = [p for p in group_by.split(",") if p]
    try:
        grouped = group_outcomes(outcomes, names)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print()
    print(render_group_table(grouped))


def _cmd_merge(args: argparse.Namespace) -> int:
    from .store import ShardConflictError, merge_shards

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
    _print_group_breakdown(merged.outcomes, args.group_by)
    if args.out:
        path = merged.write_jsonl(args.out)
        print(f"\nmerged jsonl : {path}")
    return 0 if report.all_safe else 1


def _default_worker_name() -> str:
    import os
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .orchestration.dispatch import (
        DispatchError,
        DispatchPlan,
        plan_dispatch,
        run_claims,
    )

    if args.dispatch_command == "plan":
        try:
            matrix = _build_matrix(args)
            plan = plan_dispatch(
                matrix, args.dir, units=args.units,
                lease_seconds=args.lease, max_attempts=args.max_attempts,
            )
        except (ValueError, DispatchError) as exc:
            raise SystemExit(str(exc))
        sizes = sorted({unit.scenarios for unit in plan.units})
        shape = (
            str(sizes[0]) if len(sizes) == 1 else f"{sizes[0]}-{sizes[-1]}"
        )
        print(f"manifest     : {plan.manifest_path}")
        print(f"units        : {len(plan.units)} x {shape} scenario(s) "
              f"({plan.total_scenarios} total)")
        print(f"lease        : {plan.lease_seconds:.0f}s, "
              f"{plan.max_attempts} attempt(s) max")
        print(f"claim with   : repro dispatch claim {args.dir}")
        return 0

    if args.dispatch_command == "claim":
        worker = args.worker or _default_worker_name()
        cache = None
        if args.cache:
            from .store import ResultCache

            cache = ResultCache(args.cache)

        def on_unit(unit: Any, result: Any) -> None:
            print(f"{unit.name}  : {len(result.outcomes)} scenario(s) "
                  f"-> {unit.shard}")

        try:
            plan = DispatchPlan.load(args.dir)
        except DispatchError as exc:
            raise SystemExit(str(exc))
        telemetry = None
        if not args.no_events:
            from pathlib import Path

            from .obs import (
                LEDGER_NAME, EventLedger, MetricsRegistry, SweepTelemetry,
            )

            telemetry = SweepTelemetry(
                ledger=EventLedger(
                    Path(args.dir) / LEDGER_NAME,
                    run_id=plan.run_id, worker=worker,
                ),
                metrics=MetricsRegistry(),
            )
        try:
            executed = run_claims(
                plan, worker=worker, backend=args.backend,
                cache=cache, workers=args.workers,
                max_units=args.max_units, on_unit=on_unit,
                heartbeat_interval=args.heartbeat, telemetry=telemetry,
            )
            plan = DispatchPlan.load(args.dir)
        except (ValueError, DispatchError) as exc:
            raise SystemExit(str(exc))
        finally:
            if telemetry is not None:
                telemetry.ledger.close()
        print(f"claimed      : {len(executed)} unit(s) as {worker}")
        print(f"queue        : {plan.describe()}")
        return 0

    # status (the subparser guarantees no other value)
    import time
    from pathlib import Path

    from .analysis.progress import render_progress
    from .orchestration.sweeps import format_table as _table

    try:
        plan = DispatchPlan.load(args.dir)
    except DispatchError as exc:
        raise SystemExit(str(exc))
    now = time.time()
    if args.reclaim:
        reclaimed = plan.reclaim_stale(now)
        for unit in reclaimed:
            print(f"reclaimed    : {unit.name} (lease expired, "
                  f"attempt {unit.attempts}/{plan.max_attempts})")
        if reclaimed:
            # Reconciliation is fleet history too: record it in the
            # directory's ledger when one exists.
            ledger_path = Path(args.dir) / "events.jsonl"
            if ledger_path.exists():
                from .obs import EVENT_UNIT_RECLAIMED, EventLedger

                with EventLedger(
                    ledger_path, run_id=plan.run_id, worker="status",
                ) as ledger:
                    for unit in reclaimed:
                        ledger.emit(
                            EVENT_UNIT_RECLAIMED, unit=unit.name,
                            attempt=unit.attempts,
                        )
        else:
            print("reclaimed    : nothing (no expired leases)")
        plan = DispatchPlan.load(args.dir)
    rows = []
    for unit in plan.units:
        state = unit.status
        if unit.abandoned(now, plan.max_attempts):
            state = "exhausted"
        elif unit.lease_expired(now):
            state = "expired"
        lease = "-"
        if unit.status == "leased" and unit.lease_expires is not None:
            lease = f"{max(0.0, unit.lease_expires - now):.0f}s"
        pulse = "-"
        age = unit.heartbeat_age(now)
        if age is not None:
            pulse = f"{age:.0f}s"
            if unit.lease_expired(now) and unit.heartbeat_at is None:
                pulse = "never"  # expired with no pulse: presumed dead
        progress = (
            f"{unit.progress_done}/{unit.progress_total}"
            if unit.progress_done is not None
            and unit.progress_total is not None else "-"
        )
        rows.append([
            unit.name, state, unit.owner or "-", unit.attempts,
            unit.scenarios if unit.records is None else unit.records,
            lease, pulse, progress,
        ])
    print(_table(
        ["unit", "state", "owner", "attempts", "scenarios", "lease",
         "pulse", "progress"],
        rows,
    ))
    done = sum(1 for unit in plan.units if unit.status == "done")
    print(f"\nprogress     : {render_progress(done, len(plan.units))}")
    print(f"status       : {plan.describe(now)}")
    stale = plan.stale_units(now)
    if stale:
        print(f"stale        : {len(stale)} expired lease(s) with a dead "
              f"claimant -- run `repro dispatch status {args.dir} "
              f"--reclaim` to release")
    return 0 if plan.finished else 1


def _cmd_collect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .orchestration.dispatch import MANIFEST_NAME, SHARD_DIR
    from .store import CollectorError, ShardConflictError, watch_shards

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
        from .obs import EventLedger

        run_id = ""
        if manifest_root is not None:
            from .orchestration.dispatch import DispatchPlan

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


def _cmd_store(args: argparse.Namespace) -> int:
    # Only "verify" exists today; the subparser enforces that.
    from .store import ResultCache, verify_store

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


def _ledger_path(source: str) -> Any:
    """Resolve an ``events``/``trace --ledger`` SOURCE: a ledger file as
    given, or a directory's ``events.jsonl``."""
    from pathlib import Path

    from .obs import LEDGER_NAME

    path = Path(source)
    if path.is_dir():
        path = path / LEDGER_NAME
    if not path.exists():
        raise SystemExit(f"no event ledger at {path}")
    return path


def _cmd_events(args: argparse.Namespace) -> int:
    import time

    from .obs import format_event, read_events, tail_events

    path = _ledger_path(args.source)
    filters: dict[str, Any] = {
        "types": args.types,
        "worker": args.worker,
        "run": args.run,
    }
    if args.since is not None:
        filters["since"] = time.time() - args.since
    try:
        if args.events_command == "tail":
            records: Any = tail_events(path, n=args.n, **filters)
        else:
            records = read_events(path, **filters)
        count = 0
        for record in records:
            count += 1
            if args.json:
                print(json.dumps(record, sort_keys=True))
            else:
                print(format_event(record))
    except ValueError as exc:
        raise SystemExit(str(exc))
    if count == 0 and not args.json:
        print("(no matching events)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs import render_top
    from .orchestration.dispatch import DispatchError, DispatchPlan

    def frame() -> Any:
        plan = DispatchPlan.load(args.dir)
        print(render_top(plan, stale_after=args.stale))
        return plan

    try:
        if args.once:
            return 0 if frame().finished else 1
        while True:
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                print("\033[2J\033[H", end="")
            plan = frame()
            if plan.finished:
                return 0
            sys.stdout.flush()
            time.sleep(max(0.1, args.interval))
    except DispatchError as exc:
        raise SystemExit(str(exc))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import chrometrace

    if args.ledger is not None and args.from_profile is not None:
        raise SystemExit("--ledger and --from-profile are exclusive")
    if args.ledger is not None:
        from .obs import read_events

        path = _ledger_path(args.ledger)
        try:
            trace = chrometrace.trace_from_ledger(
                read_events(path), label=args.label or "fleet"
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        source = str(path)
    elif args.from_profile is not None:
        from pathlib import Path

        try:
            profile = json.loads(
                Path(args.from_profile).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"unreadable profile {args.from_profile}: {exc}")
        trace = chrometrace.trace_from_profile(
            profile, label=args.label or "sweep profile"
        )
        source = args.from_profile
    else:
        import dataclasses

        config = dataclasses.replace(
            _build_config(args, args.seed), trace=True
        )
        result = run_consensus(config)
        trace = chrometrace.trace_from_tracer(
            result.trace,
            label=args.label
            or f"run n={args.n} t={args.t} seed={args.seed}",
        )
        source = (
            f"one run (decided={result.all_decided}, "
            f"rounds={result.rounds}, messages={result.messages_sent})"
        )
    path = chrometrace.write_trace(args.out, trace)
    events = len(trace["traceEvents"])
    print(f"source       : {source}")
    print(f"trace        : {path} ({events} event(s))")
    print("view at      : https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
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


def _cmd_feasibility(args: argparse.Namespace) -> int:
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


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "profile": _cmd_profile,
        "merge": _cmd_merge,
        "dispatch": _cmd_dispatch,
        "collect": _cmd_collect,
        "store": _cmd_store,
        "events": _cmd_events,
        "top": _cmd_top,
        "trace": _cmd_trace,
        "bounds": _cmd_bounds,
        "feasibility": _cmd_feasibility,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
