"""Command-line interface: ``python -m repro <command>``.

One module per command under this package, each exposing
``add_arguments(parser)`` and ``run(args) -> int``; :data:`COMMANDS` is
the static table that names them.  :func:`main` declares every
sub-command from the table but imports and populates only the one named
in ``argv``, so a process start costs what its command needs and no
more (``docs/index.md`` has the layer diagram and the per-command
module counts).  Options shared between commands are built in
:mod:`repro.cli.options`.

Commands:

* ``run`` — execute one consensus run and print the outcome;
* ``sweep`` — expand a scenario matrix (sizes × topologies × adversaries
  × value diversity × seeds — plus ``--axis NAME=V1,V2,...`` for *any*
  registered scenario axis: ``k``, per-cell ``faults``, fault
  ``placement``, ``proposals`` profiles, budgets, custom axes; see
  :mod:`repro.orchestration.axes`), run it in this process or on
  ``--workers`` pooled ones, and print aggregate plus
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
  ``claim`` runs a worker loop that leases units, executes them at any
  worker count (sharing a ``--cache`` store if given) and writes shard
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
  deliveries, callback for timers/tasks), plus, with ``--out
  profile.json``, the machine-readable snapshot.  ``sweep --profile``
  attaches the same profiler to an ordinary sweep;
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
machine-readable summary instead.  A configuration the model rejects
(:class:`~repro.errors.ConfigurationError`) ends any command with
``repro: error: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Iterable, Sequence

from .. import __version__

__all__ = ["COMMANDS", "main", "build_parser"]

#: ``(name, one-line help, module)`` per sub-command, in ``--help`` order.
COMMANDS: tuple[tuple[str, str, str], ...] = (
    ("run", "execute one consensus run", ".run"),
    ("check", "exhaustively enumerate small-model schedules", ".check"),
    ("sweep", "run a scenario-matrix sweep", ".sweep"),
    ("profile", "profile a sweep: per-phase / per-tag wall-time breakdown",
     ".profile"),
    ("merge", "merge JSONL sweep shards into one report", ".merge"),
    ("dispatch", "distributed sweep work queue (plan/claim/status)",
     ".dispatch"),
    ("collect", "incrementally fold shard JSONLs into one merged report",
     ".collect"),
    ("store", "persistent result-store tools", ".store"),
    ("events", "read the structured fleet event ledger", ".events"),
    ("top", "live fleet view over a dispatch directory", ".top"),
    ("trace", "export a Chrome/Perfetto trace (run, ledger or profile)",
     ".trace"),
    ("bounds", "Section 5.4 round-bound table", ".bounds"),
    ("feasibility", "m-valued feasibility envelope", ".feasibility"),
)


def build_parser(
    commands: Iterable[str] | None = None,
) -> argparse.ArgumentParser:
    """The top-level argument parser.

    Every sub-command is declared, so ``--help`` and the "invalid
    choice" error list them all; those named in ``commands`` (default:
    all of them) also get their module imported and their arguments
    added.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimal Synchrony for Byzantine Consensus — reproduction CLI",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="documentation: docs/index.md (architecture map), "
               "docs/sweeps.md (sweeps, sharding, dispatch/collect),\n"
               "docs/store.md (result store), docs/kernel.md "
               "(simulation kernel)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    populate = None if commands is None else set(commands)
    for name, summary, module_name in COMMANDS:
        command_parser = sub.add_parser(name, help=summary)
        if populate is None or name in populate:
            module = import_module(module_name, __name__)
            module.add_arguments(command_parser)
            command_parser.set_defaults(handler=module.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no valued option, so the first bare
    # word is the command: only its module is imported.
    named = [arg for arg in argv if not arg.startswith("-")][:1]
    args = build_parser(named).parse_args(argv)
    # Imported once a command is going to run (every one of them loads
    # it anyway): ``--help`` and ``--version`` exit above, having
    # imported nothing.
    from ..errors import ConfigurationError

    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # A configuration the model rejects (n <= 3t, k > t, ...) is the
        # caller's input, not a crash: one line, argparse's exit code.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

