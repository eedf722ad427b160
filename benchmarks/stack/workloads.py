"""The four workloads, each defined once and rendered two ways.

A :class:`Sweep` or :class:`Check` is plain data.  ``argv`` renders it as
the ``python -m repro ...`` command line the end-to-end passes spawn;
``matrix`` / ``explore`` render the same definition as the
``ScenarioMatrix`` / ``Explorer`` the traced run drives in-process.  The
oracle's byte check (CLI JSONL == in-process JSONL) is what proves the
two renderings are the same traffic.

``--seed S`` becomes the CLI ``--seed`` (the matrix ``base_seed``) and,
for checks, the proposal *labels* (state counts do not depend on them);
the program under test only ever sees the generated argv / specs.

This module imports ``repro`` lazily so the end-to-end parent can build
argv without paying (or leaking into ``peak_rss_mb``) the import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


@dataclass(frozen=True)
class Sweep:
    """A scenario matrix: the flags ``sweep`` and ``dispatch plan`` share."""

    grid: tuple[tuple[int, int], ...]
    topologies: tuple[str, ...]
    adversaries: tuple[str, ...]
    value_counts: tuple[int, ...]
    seeds: int

    def flags(self, seed: int) -> list[str]:
        return [
            "--grid", ",".join(f"{n}:{t}" for n, t in self.grid),
            "--topologies", ",".join(self.topologies),
            "--adversaries", ",".join(self.adversaries),
            "--value-counts", ",".join(map(str, self.value_counts)),
            "--seeds", str(self.seeds),
            "--seed", str(seed),
        ]

    def matrix(self, seed: int) -> Any:
        """What ``repro.cli`` builds from :meth:`flags` (its ``--values``
        default ``a,b`` is the value pool)."""
        from repro.orchestration import ScenarioMatrix

        return ScenarioMatrix(
            sizes=list(self.grid),
            topologies=list(self.topologies),
            adversaries=list(self.adversaries),
            value_counts=list(self.value_counts),
            value_pool=["a", "b"],
            seeds=range(self.seeds),
            base_seed=seed,
        )


@dataclass(frozen=True)
class Check:
    """One ``repro check`` command over the n=2, t=0, one-round model."""

    name: str
    #: Proposal labels drawn from the seed: two equal or two distinct.
    distinct: bool = False
    fifo: bool = False
    budget: int | None = None
    minimize: bool = True
    mutant: str | None = None
    #: Expected outputs.  ``states`` is pinned only where the model is
    #: exhausted (the size of its state space); budget-bounded and
    #: mutant runs must merely repeat exactly.
    verdict: str = "ok"
    exhausted: bool = True
    states: int | None = None

    def values(self, seed: int) -> list[str]:
        return [f"a{seed}", f"b{seed}" if self.distinct else f"a{seed}"]

    def argv(self, seed: int) -> list[str]:
        argv = ["check"]
        if self.mutant is not None:
            argv += ["--mutant", self.mutant]
        else:
            argv += ["--n", "2", "--t", "0",
                     "--values", ",".join(self.values(seed))]
            if self.fifo:
                argv.append("--fifo")
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        if not self.minimize:
            argv.append("--no-minimize")
        return argv + ["--json"]

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "ok" else 1

    def config(self, seed: int) -> Any:
        """The model ``repro check`` explores for :meth:`argv` (mutants
        bring their own trigger scenario)."""
        from repro.checking import MUTANTS
        from repro.orchestration import RunConfig, standard_proposals

        if self.mutant is not None:
            return MUTANTS[self.mutant].scenario()
        return RunConfig(
            n=2, t=0, proposals=standard_proposals([1, 2], self.values(seed)),
            adversaries={}, max_rounds=1, fifo=self.fifo,
        )

    def explore(self, seed: int) -> Any:
        """In-process rendering: the ``CheckResult`` of the same search."""
        import contextlib

        from repro.checking import Explorer, apply_mutant

        guard: Any = contextlib.nullcontext()
        if self.mutant is not None:
            guard = apply_mutant(self.mutant)
        with guard:
            return Explorer(
                self.config(seed), max_executions=self.budget,
                minimize=self.minimize,
            ).run()


_FIFO_SAME = Check("fifo_same", fifo=True, states=133)
_FIFO_DISTINCT = Check("fifo_distinct", distinct=True, fifo=True, states=121)
_UNORDERED = Check("unordered_budget", budget=300, minimize=False,
                   exhausted=False)
_MUTANT = Check("mutant", mutant="decide-any-support", verdict="violation",
                exhausted=False)


@dataclass(frozen=True)
class Command:
    """One CLI command of a repeat, with what the oracle expects of it."""

    label: str
    argv: list[str]
    exit_code: int = 0
    #: JSONL the command must leave on disk, and how many records.
    out: Path | None = None
    records: int = 0
    #: Label of an earlier command whose output bytes must equal ``out``.
    same_as: str | None = None
    check: Check | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``sweep`` (one command), ``store`` (every store path) or ``check``.
    kind: str
    #: The end-to-end matrix, and its ~1/10 size: what ``--quick`` and
    #: the warm-up in set-up run, and what the traced run's per-scenario
    #: probes execute (per-unit costs, so a sample is enough; at least 8
    #: scenarios so the pooled backend does not fall back to inline).
    sweep: Sweep
    quick: Sweep
    #: ``repro check`` commands: the end-to-end plan of a ``check``
    #: workload; the other workloads lend the checking probes one model.
    checks: tuple[Check, ...] = (_FIFO_SAME,)
    quick_checks: tuple[Check, ...] = (_FIFO_SAME,)

    @property
    def unit(self) -> str:
        return "state" if self.kind == "check" else "scenario"

    def plan(self, seed: int, scratch: Path, quick: bool = False) -> list[Command]:
        """The CLI commands of one repeat, writing under ``scratch``."""
        sweep = self.quick if quick else self.sweep
        if self.kind == "check":
            checks = self.quick_checks if quick else self.checks
            return [
                Command(c.name, c.argv(seed), exit_code=c.exit_code, check=c)
                for c in checks
            ]
        total = scenario_count(sweep)
        flags = sweep.flags(seed) + ["--workers", "1"]
        if self.kind == "sweep":
            out = scratch / "sweep.jsonl"
            return [Command("sweep", ["sweep", *flags, "--jsonl", str(out)],
                            out=out, records=total)]
        cache = ["--cache", str(scratch / "cache")]

        def sweep_to(label: str, *extra: str, records: int = total,
                     same_as: str | None = None) -> Command:
            out = scratch / f"{label}.jsonl"
            return Command(
                label, ["sweep", *flags, *cache, *extra, "--jsonl", str(out)],
                out=out, records=records, same_as=same_as,
            )

        shards = [
            sweep_to(f"shard{i}", "--shard", f"{i}/4",
                     records=len(range(i - 1, total, 4)))
            for i in (1, 2, 3, 4)
        ]
        merged_shards = scratch / "merged_shards.jsonl"
        merged_cold = scratch / "merged_cold.jsonl"
        collected = scratch / "collected.jsonl"
        dispatch = str(scratch / "dispatch")
        return [
            sweep_to("cold"),
            sweep_to("warm", same_as="cold"),
            *shards,
            Command("merge_shards",
                    ["merge", *(str(s.out) for s in shards),
                     "--out", str(merged_shards)],
                    out=merged_shards, records=total),
            Command("merge_cold",
                    ["merge", str(scratch / "cold.jsonl"),
                     "--out", str(merged_cold)],
                    out=merged_cold, records=total, same_as="merge_shards"),
            Command("plan", ["dispatch", "plan", *sweep.flags(seed),
                             "--dir", dispatch, "--units", "8"]),
            Command("claim", ["dispatch", "claim", dispatch, "--backend",
                              "serial", *cache, "--worker", "bench"]),
            Command("collect", ["collect", dispatch, "--out", str(collected),
                                "--quiet"],
                    out=collected, records=total, same_as="cold"),
        ]


def scenario_count(sweep: Sweep) -> int:
    """Scenarios :meth:`Sweep.matrix` expands to.  Every cell of every
    workload is feasible (``n - t > m*t`` holds for m <= 2 on all the
    grids below), so this is the plain product — checked against
    ``len(matrix)`` by set-up."""
    return (len(sweep.grid) * len(sweep.topologies) * len(sweep.adversaries)
            * len(sweep.value_counts) * sweep.seeds)


_WIDE = Sweep(
    grid=((4, 1), (7, 2)),
    topologies=("minimal", "timely"),
    adversaries=("crash", "two_faced:evil", "mute_coord", "collude:evil"),
    value_counts=(1, 2),
    seeds=6,
)
_DEEP = Sweep(
    grid=((16, 5), (31, 10)),
    topologies=("minimal",),
    adversaries=("crash", "two_faced:evil"),
    value_counts=(2,),
    seeds=1,
)
_STORE = Sweep(
    grid=((4, 1),),
    topologies=("minimal", "timely"),
    adversaries=("crash", "noise"),
    value_counts=(1, 2),
    seeds=50,
)
#: The small matrix check_exhaust lends the sweep-shaped layer probes.
_TINY = Sweep(
    grid=((4, 1),),
    topologies=("minimal",),
    adversaries=("crash", "two_faced:evil"),
    value_counts=(2,),
    seeds=4,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep_wide",
            kind="sweep",
            sweep=_WIDE,
            quick=replace(_WIDE, seeds=1),
        ),
        Workload(
            name="sweep_deep",
            kind="sweep",
            sweep=_DEEP,
            quick=replace(_DEEP, grid=((7, 2), (10, 3)), seeds=2),
        ),
        Workload(
            name="store_cycle",
            kind="store",
            sweep=_STORE,
            quick=replace(_STORE, seeds=5),
        ),
        Workload(
            name="check_exhaust",
            kind="check",
            sweep=_TINY,
            quick=_TINY,
            checks=(_FIFO_SAME, _FIFO_DISTINCT, _UNORDERED, _MUTANT),
            quick_checks=(
                _FIFO_SAME,
                replace(_UNORDERED, budget=30),
                replace(_MUTANT, minimize=False),
            ),
        ),
    )
}
