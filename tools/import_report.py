#!/usr/bin/env python3
"""What one ``repro`` command imports before it does any work.

    python tools/import_report.py merge a.jsonl b.jsonl
    python tools/import_report.py --forbid execution-stack --recorded 24 merge a.jsonl

Runs ``python -X importtime -m repro CMD...`` (``src/`` is put on the
path here) and prints the module count, ``repro.*`` vs standard-library
self time and the ten most expensive modules.  The gates are counts, not
timings, so they hold on any runner: ``--forbid PREFIX`` fails when a
module at or under ``PREFIX`` was imported (``execution-stack`` names
the set a spec/codec/store command must never load, see the layer
diagram in ``docs/index.md``), ``--recorded N`` fails when more than
``N + 2`` ``repro.*`` modules were.  With no gate tripped the exit code
is the command's own.  ``tests/test_import_layers.py`` pins the same
sets per command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The layers that execute scenarios; the protocol modules of ``core``
#: are named one by one because ``core.coord`` and ``core.values`` are
#: import-free vocabulary (round combinatorics, the ⊥ sentinel).
EXECUTION_STACK = (
    "repro.orchestration.runner", "repro.orchestration.pool",
    "repro.sim.loop", "repro.net.network", "repro.runtime",
    "repro.broadcast", "repro.baselines", "repro.adversary.behaviors",
    "repro.core.adopt_commit", "repro.core.consensus",
    "repro.core.consensus_variant", "repro.core.eventual_agreement",
    "repro.profiling", "repro.obs", "repro.checking",
    "tracemalloc", "asyncio", "multiprocessing",
)

#: How far above ``--recorded`` the ``repro.*`` module count may drift.
SLACK = 2


def imported_modules(argv: list[str]) -> tuple[list[tuple[str, int]], int]:
    """``([(module, self_us), ...] in import order, exit code)`` of one
    ``python -m repro ARGV`` child."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    modules = []
    for line in child.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and fields[0].strip().isdigit():
            modules.append((fields[2].strip(), int(fields[0])))
    return modules, child.returncode


def loaded(modules: list[tuple[str, int]], prefixes: tuple[str, ...]) -> list[str]:
    """The imported modules at or under any of ``prefixes``."""
    return [
        name for name, _ in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--forbid", action="append", default=[], metavar="PREFIX",
                        help="fail if this module (or one under it) is "
                             "imported; 'execution-stack' names the set")
    parser.add_argument("--recorded", type=int, default=None, metavar="N",
                        help=f"fail above N + {SLACK} repro.* modules")
    parser.add_argument("command", nargs=argparse.REMAINDER, metavar="CMD",
                        help="arguments of `python -m repro`")
    args = parser.parse_args(argv)
    modules, exit_code = imported_modules(args.command)
    ours = [(name, us) for name, us in modules if name.split(".")[0] == "repro"]
    ours_us = sum(us for _, us in ours)
    total_us = sum(us for _, us in modules)
    print(f"command      : repro {' '.join(args.command)} (exit {exit_code})")
    print(f"modules      : {len(modules)} ({len(ours)} repro.*)")
    print(f"self time    : repro.* {ours_us / 1000:.1f} ms, "
          f"everything else {(total_us - ours_us) / 1000:.1f} ms")
    for name, us in sorted(modules, key=lambda item: -item[1])[:10]:
        print(f"  {us / 1000:7.1f} ms  {name}")
    prefixes = tuple(
        p for item in args.forbid
        for p in (EXECUTION_STACK if item == "execution-stack" else (item,))
    )
    failures = [f"forbidden module imported: {name}"
                for name in loaded(modules, prefixes)]
    if args.recorded is not None and len(ours) > args.recorded + SLACK:
        failures.append(f"{len(ours)} repro.* modules, recorded "
                        f"{args.recorded} (+{SLACK} allowed)")
    for failure in failures:
        print(f"FAIL         : {failure}")
    return 1 if failures else exit_code


if __name__ == "__main__":
    sys.exit(main())
