"""``repro trace`` — export a Chrome/Perfetto trace (run, ledger or profile)."""

from __future__ import annotations

import argparse
import json

from .events import ledger_path
from .options import add_system_args, build_run_config


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "default: execute one consensus run (same knobs as `repro\n"
        "run`) with tracing on and export its timeline.  --ledger\n"
        "exports a fleet event-ledger slice instead; --from-profile\n"
        "exports a `repro profile --out` phase breakdown.  load the\n"
        "output at https://ui.perfetto.dev — docs/observability.md"
    )
    add_system_args(parser)
    parser.add_argument("--ledger", default=None, metavar="SOURCE",
                        help="export this event ledger (file or dispatch "
                             "directory) instead of running")
    parser.add_argument("--from-profile", default=None, metavar="PATH",
                        help="export this profile JSON (`repro profile "
                             "--out`) instead of running")
    parser.add_argument("--out", default="trace.json", metavar="PATH",
                        help="trace output path (default: %(default)s)")
    parser.add_argument("--label", default=None, metavar="NAME",
                        help="top-level process label in the trace")


def run(args: argparse.Namespace) -> int:
    from ..obs import chrometrace

    if args.ledger is not None and args.from_profile is not None:
        raise SystemExit("--ledger and --from-profile are exclusive")
    if args.ledger is not None:
        from ..obs.events import read_events

        path = ledger_path(args.ledger)
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
        from ..orchestration.runner import run_consensus

        result = run_consensus(build_run_config(args, trace=True))
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
