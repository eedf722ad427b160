"""What the executing commands share: option builders, argument parsers
and the helpers that turn parsed arguments into library objects.

Module level imports the scenario vocabulary only (every command that
builds a config or a matrix loads it anyway); the store, the sweep
engine and telemetry are imported by the helper that needs them.
``merge`` and ``events`` own the two helpers ``sweep`` and ``trace``
borrow from them, so the read-only commands never load this module.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Any, Sequence

from ..net.topology import fully_asynchronous, fully_timely
from ..orchestration.axes import ADVERSARY_KINDS, AXES
from ..orchestration.config import RunConfig
from ..orchestration.sweeps import standard_proposals

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.matrix import ScenarioMatrix


def add_model_args(
    parser: argparse.ArgumentParser, *, n: int = 4, t: int = 1,
    values: str = "a,b", adversary: str = "crash", topology: bool = True,
) -> None:
    """The system a command executes: ``--n --t --values --adversary
    --faults [--topology] --variant --k`` (``check`` passes its own,
    smaller defaults and has no topology: its channels are instant)."""
    parser.add_argument("--n", type=int, default=n, help="number of processes")
    parser.add_argument("--t", type=int, default=t, help="fault threshold")
    parser.add_argument("--values", default=values,
                        help="comma-separated proposal values (round-robin)")
    parser.add_argument(
        "--adversary", default=adversary,
        help="KIND or KIND:ARG, e.g. two_faced:evil "
             f"(kinds: {', '.join(sorted(ADVERSARY_KINDS))}; 'none' for none)",
    )
    parser.add_argument("--faults", type=int, default=None,
                        help="number of Byzantine processes (default: t)")
    if topology:
        parser.add_argument("--topology", default="minimal",
                            choices=["minimal", "timely", "async"])
    parser.add_argument("--variant", default="standard",
                        choices=["standard", "bot"])
    parser.add_argument("--k", type=int, default=0, help="Section 5.4 knob")


def add_system_args(parser: argparse.ArgumentParser) -> None:
    """One seeded run's knobs (``run``, ``trace``, every matrix command)."""
    add_model_args(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-time", type=float, default=1_000_000.0)


def add_matrix_args(parser: argparse.ArgumentParser) -> None:
    """Arguments defining a scenario matrix (``sweep``, ``profile`` and
    ``dispatch plan``)."""
    add_system_args(parser)
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


def build_config(args: argparse.Namespace, **extra: Any) -> RunConfig:
    """The :class:`RunConfig` the model flags describe; ``extra`` carries
    what only one command sets (topology and seed, or the check bounds)."""
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
    return RunConfig(
        n=n, t=t, proposals=standard_proposals(correct, values),
        adversaries=adversaries, variant=args.variant, k=args.k, **extra,
    )


def build_run_config(args: argparse.Namespace, **extra: Any) -> RunConfig:
    """:func:`build_config` for ``run`` / ``trace``: adds topology, seed
    and the time budget."""
    topology = None
    if args.topology == "timely":
        topology = fully_timely(args.n)
    elif args.topology == "async":
        topology = fully_asynchronous(args.n)
    return build_config(args, topology=topology, seed=args.seed,
                        max_time=args.max_time, **extra)


def render(value: Any) -> str:
    from ..core.values import BOT  # run/check only: sweeps never print a value

    return "⊥" if value is BOT else repr(value)


def parse_grid(text: str) -> list[tuple[int, int]]:
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


def parse_axes(entries: Sequence[str]) -> dict[str, list[Any]]:
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


def parse_shard(text: str) -> tuple[int, int]:
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


def build_matrix(args: argparse.Namespace) -> "ScenarioMatrix":
    from ..orchestration.matrix import ScenarioMatrix

    sizes = parse_grid(args.grid) if args.grid else [(args.n, args.t)]
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
        axes=parse_axes(args.axis) if args.axis else None,
    )


def resolve_workers(backend: str, workers: int | None) -> int:
    """The process count a ``--backend`` / ``--workers`` pair names:
    ``serial`` is one process, anything else is ``--workers`` (default:
    the schedulable CPUs)."""
    if backend == "serial":
        return 1
    if workers is None:
        from ..orchestration.parallel import default_workers

        return default_workers()
    return workers


def run_sweep(backend: str, work: Any, workers: int | None, **kwargs: Any) -> Any:
    """Run ``work`` on the process count the flags chose."""
    from ..orchestration.parallel import sweep_parallel

    return sweep_parallel(
        work, workers=resolve_workers(backend, workers), **kwargs
    )


def open_telemetry(path: Any, run_id: str, worker: str | None = None) -> Any:
    """A :class:`SweepTelemetry` appending to the ledger at ``path``."""
    from ..obs.events import EventLedger
    from ..obs.metrics import MetricsRegistry
    from ..obs.telemetry import SweepTelemetry

    return SweepTelemetry(
        ledger=EventLedger(path, run_id=run_id, worker=worker),
        metrics=MetricsRegistry(),
    )


def process_run_id(prefix: str) -> str:
    """``PREFIX-<epoch seconds>-<pid hex>``: a ledger run id for one
    CLI process."""
    import os
    import time

    return f"{prefix}-{int(time.time())}-{os.getpid():x}"


def print_profile(profiler: Any, json_path: str | None) -> None:
    """The profiler tables, the coverage line and (optionally) the
    machine-readable snapshot, written atomically like every artifact."""
    print()
    print(profiler.render())
    print(f"\ncoverage     : phases explain "
          f"{100.0 * profiler.coverage():.1f}% of measured wall time")
    if json_path:
        from ..store.atomic import atomic_write_text

        atomic_write_text(
            json_path,
            json.dumps(profiler.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        print(f"profile json : {json_path}")
