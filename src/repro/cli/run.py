"""``repro run`` — execute one consensus run and print the outcome."""

from __future__ import annotations

import argparse
import json

from .options import add_system_args, build_run_config, render


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_system_args(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON summary instead of text")


def run(args: argparse.Namespace) -> int:
    from ..orchestration.runner import run_consensus

    result = run_consensus(build_run_config(args))
    if args.json:
        payload = {
            "decisions": {pid: render(v) for pid, v in result.decisions.items()},
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
        print(f"value        : {render(result.decided_value)}")
    print(f"rounds       : {result.rounds}")
    print(f"messages     : {result.messages_sent}")
    print(f"virtual time : {result.finished_at:.1f}")
    print(f"safety       : {'OK' if result.invariants.ok else 'VIOLATED'}")
    return 0 if result.all_decided else 1
