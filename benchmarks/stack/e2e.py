"""End-to-end passes: the real CLI commands, timed from spawn to exit.

Closed loop, one client, one command at a time, tracing off.  A repeat
is the workload's whole command list (:meth:`Workload.plan`); its wall
is the sum of its commands' spawn-to-exit times with their outputs on
disk or their verdict printed, and its reference wall is that divided
by how slow the core was meanwhile (``calibrate.py``: the host's core
speed moves by a third from one second to the next, which no estimator
over plain walls survives).  The parent process stays free of
``repro`` until the timed window is over: a vfork'd child's
``ru_maxrss`` starts at the parent's, so a fat parent would put a floor
under ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from calibrate import Calibrator, pin_to_one_cpu, slowness, unpin
from stats import summarize
from workloads import SRC_DIR, Check, Command, Workload, scenario_count

#: Fresh set-up children per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Timed repeats a run aims for even when the window is already spent
#: (a slow box then overruns rather than reporting three samples).
MIN_REPEATS = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class CliResult:
    #: ``perf_counter`` at spawn and at exit.
    started: float
    ended: float
    cpu: float
    exit_code: int
    rss_mb: float
    stdout: str

    @property
    def wall(self) -> float:
        return self.ended - self.started


def run_cli(argv: list[str], env: dict[str, str]) -> CliResult:
    """Spawn ``python -m repro ARGV``; wall is spawn -> exit.  ``wait4``
    gives this child's own peak RSS (``RUSAGE_CHILDREN`` only ever grows)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.stdout is not None
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.perf_counter()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(started, ended, usage.ru_utime + usage.ru_stime,
                     proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_stats(stdout: str) -> dict[str, Any]:
    """Verdict, exhaustion flag and the exact counters of ``check --json``."""
    payload = json.loads(stdout)
    stats = payload["stats"]
    return {
        "verdict": payload["verdict"],
        "exhausted": payload["exhausted"],
        "minimized": payload["minimized"],
        "states": stats["states"],
        "executions": stats["executions"],
        "steps": stats["steps"],
    }


def check_problems(check: Check, seen: dict[str, Any]) -> list[str]:
    problems = []
    if seen["verdict"] != check.verdict:
        problems.append(f"verdict {seen['verdict']} != {check.verdict}")
    if seen["exhausted"] != check.exhausted:
        problems.append(f"exhausted {seen['exhausted']} != {check.exhausted}")
    if check.states is not None and seen["states"] != check.states:
        problems.append(f"states {seen['states']} != {check.states}")
    if check.verdict == "violation" and seen["minimized"] != check.minimize:
        problems.append(f"minimized {seen['minimized']} != {check.minimize}")
    return problems


@dataclass
class Repeat:
    """What one pass over the command list produced and cost."""

    wall: float = 0.0
    cpu: float = 0.0
    #: When each command ran (``perf_counter`` pairs), for the calibrator.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    rss_mb: float = 0.0
    command_walls: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    checks: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Operations (scenarios / check commands) attempted and failed.
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    messages: int = 0
    decided: int = 0
    states: int = 0


def run_repeat(plan: list[Command], env: dict[str, str], unit: str) -> Repeat:
    """Run every command of ``plan`` in order, then judge its outputs."""
    repeat = Repeat()
    results: dict[str, CliResult] = {}
    for command in plan:
        result = run_cli(command.argv, env)
        results[command.label] = result
        repeat.command_walls[command.label] = result.wall
        repeat.wall += result.wall
        repeat.cpu += result.cpu
        repeat.intervals.append((result.started, result.ended))
        repeat.rss_mb = max(repeat.rss_mb, result.rss_mb)
    bad_records = 0
    broken = False  # a command-level failure fails every operation
    for command in plan:
        result = results[command.label]
        if result.exit_code != command.exit_code:
            broken = True
            repeat.problems.append(
                f"{command.label}: exit {result.exit_code}, expected "
                f"{command.exit_code}: {result.stdout[-300:]!r}"
            )
            continue
        if command.check is not None:
            seen = check_stats(result.stdout)
            repeat.checks[command.label] = seen
            repeat.states += seen["states"]
            found = check_problems(command.check, seen)
            repeat.failed += bool(found)
            repeat.problems += [f"{command.label}: {p}" for p in found]
        if command.out is None:
            continue
        if not command.out.is_file():
            broken = True
            repeat.problems.append(f"{command.label}: no {command.out.name}")
            continue
        data = command.out.read_bytes()
        repeat.digests[command.label] = hashlib.sha256(data).hexdigest()
        records = [json.loads(line) for line in data.splitlines()]
        bad = abs(len(records) - command.records) + sum(
            1 for r in records
            if r["error"] or r["timed_out"] or not r["decided"]
            or not r["invariants_ok"]
        )
        if bad:
            repeat.problems.append(f"{command.label}: {bad} bad/missing record(s)")
        bad_records = max(bad_records, bad)
        if command.same_as is None and not repeat.messages:
            repeat.messages = sum(r["messages_sent"] for r in records)
            repeat.decided = sum(1 for r in records if r["decided"])
    for command in plan:
        if command.same_as is None or command.label not in repeat.digests:
            continue
        if repeat.digests[command.label] != repeat.digests.get(command.same_as):
            broken = True
            repeat.problems.append(
                f"{command.label}: bytes differ from {command.same_as}"
            )
    if unit == "state":
        repeat.attempted = len(plan)
    else:
        repeat.attempted = max(c.records for c in plan)
        repeat.failed = bad_records
    if broken:
        repeat.failed = repeat.attempted
    return repeat


def setup_child(workload: Workload, seed: int, quick: bool, scratch: Path) -> int:
    """What ``setup_s`` times, run in a fresh interpreter: import
    ``repro``, render the workload both ways, create the scratch
    directories, and run the warm-up (the first command of the
    ~1/10-size plan through the same CLI, so the interpreter, bytecode
    and page caches are hot before the window opens).  Prints what the
    parent's oracle needs as one JSON line."""
    import repro  # noqa: F401  (the import is part of what is timed)

    sweep = workload.quick if quick else workload.sweep
    specs = sweep.matrix(seed).expand()
    if len(specs) != scenario_count(sweep):
        print(f"matrix expands to {len(specs)} scenarios, argv promises "
              f"{scenario_count(sweep)}", file=sys.stderr)
        return 1
    warm_dir = scratch / "warmup"
    shutil.rmtree(warm_dir, ignore_errors=True)
    warm_dir.mkdir(parents=True)
    warmup = run_repeat(workload.plan(seed, warm_dir, quick=True)[:1],
                        child_env(), workload.unit)
    if warmup.failed:
        print("\n".join(warmup.problems), file=sys.stderr)
        return 1
    print(json.dumps({"digests": warmup.digests, "checks": warmup.checks}))
    return 0


def measure_setup(
    run_py: Path, workload: Workload, seed: int, quick: bool, scratch: Path
) -> tuple[list[tuple[float, float]], dict[str, Any]]:
    """``SETUP_SAMPLES`` fresh set-up children; when each ran
    (``perf_counter`` pairs), and the last one's warm-up outputs."""
    argv = [sys.executable, str(run_py), "--setup-child", "--workload",
            workload.name, "--seed", str(seed), "--scratch", str(scratch)]
    if quick:
        argv.append("--quick")
    spans = []
    warmup: dict[str, Any] = {}
    for _ in range(1 if quick else SETUP_SAMPLES):
        started = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True)
        spans.append((started, time.perf_counter()))
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stdout}{done.stderr}")
        warmup = json.loads(done.stdout.splitlines()[-1])
    return spans, warmup


def inprocess_parity(
    workload: Workload, seed: int, warmup: dict[str, Any], scratch: Path
) -> list[str]:
    """The in-process rendering of the warm-up command must reproduce
    its CLI output: byte-identical JSONL, identical check counts."""
    first = workload.plan(seed, scratch, quick=True)[0]
    if first.check is not None:
        result = first.check.explore(seed)
        seen = {"states": result.stats.states,
                "executions": result.stats.executions,
                "steps": result.stats.steps}
        cli = warmup["checks"][first.label]
        if any(cli[key] != value for key, value in seen.items()):
            return [f"{first.label}: in-process {seen} != CLI {cli}"]
        return []
    from repro.orchestration import sweep_serial

    out = sweep_serial(workload.quick.matrix(seed)).write_jsonl(
        scratch / "parity.jsonl"
    )
    if sha256_file(out) != warmup["digests"][first.label]:
        return ["in-process sweep_serial JSONL differs from the CLI's"]
    return []


def end_to_end_metrics(
    units: int, walls: list[float], slow: list[float], rss_mb: list[float],
    setup_walls: list[float],
) -> dict[str, Any]:
    """The end-to-end metrics of ``BENCHMARK.json``, one sample per
    repeat (per set-up child for ``setup_s``, already in seconds of the
    reference core).  ``slow`` is each repeat's core slowness
    (:func:`calibrate.slowness`): throughput is per second of the
    reference core too."""
    return {
        "units_per_s": summarize(
            [units * slowed / wall for wall, slowed in zip(walls, slow)]),
        "peak_rss_mb": summarize(rss_mb),
        "setup_s": summarize(setup_walls),
    }


def run_end_to_end(
    run_py: Path, workload: Workload, seed: int, seconds: float,
    quick: bool, scratch: Path,
) -> dict[str, Any]:
    """Set up, run timed repeats for ``seconds``, judge, summarize."""
    began = time.perf_counter()
    env = child_env()
    repeats: list[Repeat] = []
    affinity = pin_to_one_cpu()
    try:
        with Calibrator() as calibrator:
            setup_spans, warmup = measure_setup(run_py, workload, seed, quick,
                                                scratch)
            window = time.perf_counter()
            while True:
                repeat_dir = scratch / f"r{len(repeats)}"
                repeat_dir.mkdir(parents=True)
                repeats.append(run_repeat(
                    workload.plan(seed, repeat_dir, quick), env, workload.unit))
                shutil.rmtree(repeat_dir)
                measured = time.perf_counter() - window
                if quick:
                    if len(repeats) == 2:
                        break
                elif len(repeats) < MIN_REPEATS and measured <= 1.5 * seconds:
                    continue
                elif (measured + statistics.median(r.wall for r in repeats)
                      > seconds):
                    break
    finally:
        unpin(affinity)
    slow = [slowness(calibrator.samples, r.intervals) for r in repeats]
    setup_walls = [(hi - lo) / slowness(calibrator.samples, [(lo, hi)])
                   for lo, hi in setup_spans]

    first = repeats[0]
    for index, repeat in enumerate(repeats[1:], start=1):
        if repeat.digests != first.digests or repeat.checks != first.checks:
            repeat.failed = repeat.attempted
            repeat.problems.append(f"repeat {index} differs from repeat 0")
    problems = [p for r in repeats for p in r.problems]
    attempted = sum(r.attempted for r in repeats) + 1
    parity = inprocess_parity(workload, seed, warmup, scratch)
    failed = sum(r.failed for r in repeats) + bool(parity)
    problems += parity

    units = first.states if workload.unit == "state" else first.attempted
    exact: dict[str, Any] = {
        "failed_share": failed / attempted,
        "digests": first.digests,
        "checks": first.checks,
    }
    if first.decided:
        exact["msgs_per_decision"] = first.messages / first.decided
    return {
        "end_to_end": end_to_end_metrics(
            units, [r.wall for r in repeats], slow,
            [r.rss_mb for r in repeats], setup_walls),
        "exact": exact,
        "unit": workload.unit,
        "units_per_repeat": units,
        "command_walls": {
            label: summarize([r.command_walls[label] for r in repeats])
            for label in first.command_walls
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        # What the calibration corrected, per repeat: wall and CPU
        # seconds as measured, and the core's slowness meanwhile.
        "wall_units_per_s": summarize([units / r.wall for r in repeats]),
        "wall_setup_s": summarize([hi - lo for lo, hi in setup_spans]),
        "repeats": [{"wall_s": r.wall, "cpu_s": r.cpu, "slowness": slowed}
                    for r, slowed in zip(repeats, slow)],
        "measured_s": measured,
        "total_s": time.perf_counter() - began,
    }
