"""``repro top`` — live fleet view over a dispatch directory."""

from __future__ import annotations

import argparse
import sys
from typing import Any


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dir", metavar="DIR", help="dispatch directory")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (CI-friendly)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh interval (default: %(default)s)")
    parser.add_argument("--stale", type=float, default=None,
                        metavar="SECONDS",
                        help="flag workers whose heartbeat is older than "
                             "this as STALE (default: lease/2)")


def run(args: argparse.Namespace) -> int:
    import time

    from ..obs.fleet import render_top
    from ..orchestration.dispatch import DispatchError, DispatchPlan

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
