"""``repro dispatch`` — the distributed sweep work queue (plan/claim/status)."""

from __future__ import annotations

import argparse
from typing import Any

from .options import (
    add_matrix_args,
    build_matrix,
    open_telemetry,
    resolve_workers,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "a dispatch directory holds manifest.json (the work queue)\n"
        "and shards/ (one JSONL per executed unit); fold the shards\n"
        "with `repro collect DIR`.  walkthrough: docs/sweeps.md"
    )
    sub = parser.add_subparsers(dest="dispatch_command", required=True)
    plan_p = sub.add_parser(
        "plan", help="partition a sweep matrix into claimable shard units"
    )
    add_matrix_args(plan_p)
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
    plan_p.set_defaults(dispatch_handler=_plan)
    claim_p = sub.add_parser(
        "claim", help="worker loop: lease units, execute, write shards"
    )
    claim_p.add_argument("dir", metavar="DIR", help="dispatch directory")
    claim_p.add_argument("--worker", default=None, metavar="NAME",
                         help="worker identity recorded on leases "
                              "(default: host-pid)")
    claim_p.add_argument("--backend", default="serial",
                         choices=["serial", "parallel"],
                         help="where each claimed unit runs (serial: in "
                              "this process; parallel: on --workers)")
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
    claim_p.set_defaults(dispatch_handler=_claim)
    status_p = sub.add_parser(
        "status", help="render the work queue (exit 0 once all units done)"
    )
    status_p.add_argument("dir", metavar="DIR", help="dispatch directory")
    status_p.add_argument("--reclaim", action="store_true",
                          help="release every expired lease back to "
                               "pending (stale-state reconciliation) "
                               "before rendering")
    status_p.set_defaults(dispatch_handler=_status)


def run(args: argparse.Namespace) -> int:
    from ..orchestration.dispatch import DispatchError

    try:
        return args.dispatch_handler(args)
    except DispatchError as exc:
        raise SystemExit(str(exc))


def _plan(args: argparse.Namespace) -> int:
    from ..orchestration.dispatch import plan_dispatch

    try:
        plan = plan_dispatch(
            build_matrix(args), args.dir, units=args.units,
            lease_seconds=args.lease, max_attempts=args.max_attempts,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    sizes = sorted({unit.scenarios for unit in plan.units})
    shape = str(sizes[0]) if len(sizes) == 1 else f"{sizes[0]}-{sizes[-1]}"
    print(f"manifest     : {plan.manifest_path}")
    print(f"units        : {len(plan.units)} x {shape} scenario(s) "
          f"({plan.total_scenarios} total)")
    print(f"lease        : {plan.lease_seconds:.0f}s, "
          f"{plan.max_attempts} attempt(s) max")
    print(f"claim with   : repro dispatch claim {args.dir}")
    return 0


def _claim(args: argparse.Namespace) -> int:
    import os
    import socket
    from pathlib import Path

    from ..orchestration.dispatch import DispatchPlan, run_claims

    worker = args.worker or f"{socket.gethostname()}-{os.getpid()}"
    cache = None
    if args.cache:
        from ..store.cache import ResultCache

        cache = ResultCache(args.cache)

    def on_unit(unit: Any, result: Any) -> None:
        print(f"{unit.name}  : {len(result.outcomes)} scenario(s) "
              f"-> {unit.shard}")

    plan = DispatchPlan.load(args.dir)
    telemetry = None
    if not args.no_events:
        from ..obs.events import LEDGER_NAME

        telemetry = open_telemetry(
            Path(args.dir) / LEDGER_NAME, plan.run_id, worker
        )
    try:
        executed = run_claims(
            plan, worker=worker, cache=cache,
            workers=resolve_workers(args.backend, args.workers),
            max_units=args.max_units, on_unit=on_unit,
            heartbeat_interval=args.heartbeat, telemetry=telemetry,
        )
        plan = DispatchPlan.load(args.dir)
    except ValueError as exc:
        raise SystemExit(str(exc))
    finally:
        if telemetry is not None:
            telemetry.ledger.close()
    print(f"claimed      : {len(executed)} unit(s) as {worker}")
    print(f"queue        : {plan.describe()}")
    return 0


def _status(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from ..analysis.progress import render_progress
    from ..analysis.tables import format_table
    from ..orchestration.dispatch import DispatchPlan

    plan = DispatchPlan.load(args.dir)
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
                from ..obs.events import EVENT_UNIT_RECLAIMED, EventLedger

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
    print(format_table(
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
