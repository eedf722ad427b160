"""``repro check`` — exhaustively enumerate small-model schedules."""

from __future__ import annotations

import argparse
import json
from typing import Any

from .options import (
    add_model_args,
    build_config,
    parse_shard,
    process_run_id,
    render,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = (
        "enumerates ALL delivery orders of a small model (instant\n"
        "channels, explicit choice points) instead of sampling\n"
        "seeds; dedups visited states, prunes commuting orders\n"
        "(sleep sets), checks invariants after every event, and\n"
        "shrinks any violation to a minimal replayable schedule.\n"
        "replay one with --replay or `repro sweep --axis\n"
        "schedule=...`.  walkthrough: docs/checking.md"
    )
    add_model_args(parser, n=2, t=0, values="a", adversary="none",
                   topology=False)
    parser.add_argument("--max-rounds", type=int, default=1,
                        help="consensus round cap for the model "
                             "(default: %(default)s — keeps the schedule "
                             "space finite and small)")
    parser.add_argument("--fifo", action="store_true",
                        help="model FIFO channels: only per-channel head "
                             "deliveries branch, which collapses the "
                             "schedule space enough to exhaust it")
    parser.add_argument("--mutant", default=None, metavar="NAME",
                        help="check a seeded protocol mutant instead "
                             "(its trigger scenario replaces the model "
                             "flags above); 'list' prints the registry")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="stop after N schedule executions "
                             "(default: unbounded — exhaust the space)")
    parser.add_argument("--depth", type=int, default=None, metavar="D",
                        help="per-run choice-point ceiling")
    parser.add_argument("--states", type=int, default=None, metavar="N",
                        help="distinct-fingerprint ceiling")
    parser.add_argument("--max-steps", type=int, default=None,
                        metavar="N", help="per-run event ceiling "
                        "(livelock guard)")
    parser.add_argument("--no-prune", action="store_true",
                        help="disable sleep-set partial-order pruning")
    parser.add_argument("--no-dedup", action="store_true",
                        help="disable visited-state deduplication")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report the raw violating schedule without "
                             "shrinking it")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="explore only the i-th of N schedule-prefix "
                             "shards (1-based; shards partition the "
                             "space by prefixes of --shard-depth)")
    parser.add_argument("--shard-depth", type=int, default=2, metavar="D",
                        help="prefix depth of the shard partition "
                             "(default: %(default)s)")
    parser.add_argument("--replay", default=None, metavar="SCHEDULE",
                        help="replay a counterexample ('-'-joined choice "
                             "indices) through the standard runner "
                             "instead of exploring")
    parser.add_argument("--progress", action="store_true",
                        help="print a progress line per batch of "
                             "executions")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="append check lifecycle events (started/"
                             "progress/finished, explored-states "
                             "throughput) to this JSONL ledger")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON summary instead of text")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the JSON summary here")


def _replay(args: argparse.Namespace, config: Any, guard: Any) -> int:
    """``--replay``: one schedule through the standard runner."""
    import dataclasses

    from ..checking.choice import ScheduleDivergence
    from ..errors import SimulationError
    from ..orchestration.runner import run_consensus

    try:
        schedule = tuple(int(p) for p in args.replay.split("-") if p != "")
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
        print(f"  p{pid} -> {render(result.decisions[pid])}")
    print(f"safety       : {'OK' if result.invariants.ok else 'VIOLATED'}")
    for violation in result.invariants.violations:
        print(f"  {violation}")
    return 0 if result.invariants.ok else 1


def run(args: argparse.Namespace) -> int:
    import contextlib
    import time

    from ..analysis.progress import render_progress
    from ..checking.explorer import Explorer
    from ..checking.harness import DEFAULT_MAX_STEPS
    from ..checking.mutants import MUTANTS, apply_mutant
    from ..checking.sharding import schedule_prefix_roots, shard_roots_slice

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
        config = build_config(
            args, max_rounds=args.max_rounds, fifo=args.fifo
        )
    # 0 means "the default"; a negative ceiling is the Explorer's to refuse.
    max_steps = args.max_steps or DEFAULT_MAX_STEPS

    if args.replay is not None:
        return _replay(args, config, guard)

    ledger = None
    if args.events:
        from ..obs.events import (
            EVENT_CHECK_FINISHED,
            EVENT_CHECK_PROGRESS,
            EVENT_CHECK_STARTED,
            EventLedger,
        )

        ledger = EventLedger(args.events, run_id=process_run_id("check"))
        ledger.emit(
            EVENT_CHECK_STARTED,
            n=config.n, t=config.t, mutant=args.mutant,
            budget=args.budget, depth=args.depth, shard=args.shard,
        )

    roots: tuple[tuple[int, ...], ...] = ((),)
    shard_note = ""
    with guard:
        if args.shard:
            index, count = parse_shard(args.shard)
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
            from ..store.atomic import atomic_write_text

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
    # Every execution ends one way: the parts sum to the total.  The
    # first four always print; a budget or a violation only when hit.
    breakdown = ", ".join(
        f"{count} {status}"
        for index, (status, count) in enumerate(result.outcomes.items())
        if index < 4 or count
    )
    print(f"executions   : {stats.executions} ({breakdown})")
    print(f"states       : {stats.states} distinct "
          f"({states_per_second:.0f}/s)")
    print(f"choice pts   : {stats.choice_points} "
          f"(max depth {stats.max_depth})")
    print(f"pruned       : {stats.pruned} slept branch(es)")
    print(f"sim steps    : {stats.steps} ({result.retraced_steps} retraced)")
    print(f"fingerprints : {result.fingerprints} state walk(s), "
          f"{result.process_walks} process walk(s)")
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
