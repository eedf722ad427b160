"""``repro events`` — read the structured fleet event ledger."""

from __future__ import annotations

import argparse
import json
from typing import Any


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "SOURCE is a ledger JSONL file, or a dispatch directory\n"
        "(its events.jsonl is read).  schema: docs/observability.md"
    )
    sub = parser.add_subparsers(dest="events_command", required=True)
    for sub_name, sub_help in (
        ("tail", "print the last N matching events"),
        ("query", "stream every matching event, oldest first"),
    ):
        ev_p = sub.add_parser(sub_name, help=sub_help)
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


def ledger_path(source: str) -> Any:
    """Resolve an ``events``/``trace --ledger`` SOURCE: a ledger file as
    given, or a directory's ``events.jsonl``."""
    from pathlib import Path

    from ..obs.events import LEDGER_NAME

    path = Path(source)
    if path.is_dir():
        path = path / LEDGER_NAME
    if not path.exists():
        raise SystemExit(f"no event ledger at {path}")
    return path


def run(args: argparse.Namespace) -> int:
    import time

    from ..obs.events import format_event, read_events, tail_events

    path = ledger_path(args.source)
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
