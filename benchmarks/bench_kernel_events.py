"""Kernel events/sec microbenchmark — the fast-path perf trajectory.

Measures the simulation kernel's hot paths in isolation and end to end:

* ``cascade`` — same-instant ``call_soon`` chains, the dominant event
  shape under the paper's zero-local-processing model (Section 2.1);
* ``timers`` — heap-scheduled future events (the slow tier);
* ``cancel_churn`` — mass-cancelled timers, exercising lazy
  cancelled-entry handling in the scheduler;
* ``flood`` — network send→deliver ping-pong with **no** instrumentation
  attached (the zero-cost emit path);
* ``flood_counted`` — the same flood with a counting send/deliver sink
  attached, bounding the cost of *enabled* instrumentation;
* ``scenario`` — full ``run_scenario`` executions, the unit of work
  every sweep backend dispatches.

Running the script writes a machine-readable JSON report (default
``BENCH_kernel.json`` at the repo root) so each PR records its point on
the throughput trajectory.  When a baseline file exists (by default
``benchmarks/results/BENCH_kernel_baseline.json``, captured on the
pre-refactor kernel), per-metric and geometric-mean speedups are
included — the kernel-refactor acceptance bar is a >= 1.4x geomean.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_events.py [--quick]
        [--out PATH] [--baseline PATH] [--label TEXT]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys
import time
from typing import Any, Callable

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.instrumentation import NET_DELIVER, NET_SEND  # noqa: E402
from repro.net.network import Network  # noqa: E402
from repro.net.timing import Asynchronous, ConstantDelay  # noqa: E402
from repro.orchestration.matrix import ScenarioSpec, run_scenario  # noqa: E402
from repro.sim.loop import Simulator  # noqa: E402
from repro.sim.random import RngRegistry  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_kernel_baseline.json"

#: Best-of-N timing repeats (first repeat also warms allocator caches).
#: Best-of — not mean — because on shared/1-CPU containers the noise is
#: strictly additive (steal time, neighbours), so the minimum is the
#: closest observable to the true cost.
REPEATS = 5


def _time_best(fn: Callable[[], int]) -> tuple[int, float]:
    """Run ``fn`` REPEATS times; return (events, best wall seconds)."""
    best = math.inf
    events = 0
    for _ in range(REPEATS):
        started = time.perf_counter()
        events = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return events, best


def bench_cascade(n_events: int) -> Callable[[], int]:
    def run() -> int:
        sim = Simulator()
        remaining = [n_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_soon(tick)

        sim.call_soon(tick)
        sim.run()
        return sim.events_processed

    return run


def bench_timers(n_events: int) -> Callable[[], int]:
    def run() -> int:
        sim = Simulator()
        # A deterministic pseudo-random delay pattern: exercises real
        # heap reordering without an RNG in the timed region.
        for i in range(n_events):
            sim.call_at(float((i * 7919) % 104729), _noop)
        sim.run()
        return sim.events_processed

    return run


def bench_cancel_churn(n_events: int) -> Callable[[], int]:
    def run() -> int:
        sim = Simulator()
        handles = [
            sim.call_at(float(1 + (i * 7919) % 104729), _noop)
            for i in range(n_events)
        ]
        # Cancel 80%: a protocol run cancels most of its round timers.
        for i, handle in enumerate(handles):
            if i % 5 != 0:
                handle.cancel()
        sim.run()
        return n_events  # scheduled + cancelled work is the workload

    return run


def _noop() -> None:
    pass


def _build_flood(n_messages: int, counted: bool):
    def run() -> int:
        sim = Simulator()
        # recycle=True matches the consensus fast path (runner.py): the
        # counted variant's hooks keep every message alive anyway (the
        # never-recycle-observed contract), so flood vs flood_counted
        # also bounds what enabling instrumentation costs in allocation.
        network = Network(
            sim, 8,
            default_timing=Asynchronous(ConstantDelay(1.0)),
            rng=RngRegistry(0),
            recycle=True,
        )
        if counted:
            seen = [0]
            def count(message, now) -> None:
                seen[0] += 1

            network.bus.attach(NET_SEND, count)
            network.bus.attach(NET_DELIVER, count)
        budget = [n_messages]

        def on_message(message) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                network.send(message.dest, 1 + message.uid % 8, "PING", None)

        for pid in range(1, 9):
            network.register_process(pid, on_message)
        budget[0] -= 8
        for pid in range(1, 9):
            network.send(pid, 1 + pid % 8, "PING", None)
        sim.run()
        return sim.events_processed

    return run


def bench_scenario(n_runs: int) -> Callable[[], int]:
    spec = ScenarioSpec(
        n=4, t=1, topology="single_bisource", adversary="two_faced:evil",
        num_values=2, seed=1234,
    )
    def run() -> int:
        events = 0
        for _ in range(n_runs):
            outcome = run_scenario(spec)
            assert outcome.decided and outcome.invariants_ok
            events += outcome.events_processed
        return events

    return run


def collect(quick: bool) -> dict[str, dict[str, float]]:
    scale = 0.1 if quick else 1.0
    sizes = {
        "cascade": int(200_000 * scale),
        "timers": int(100_000 * scale),
        "cancel_churn": int(100_000 * scale),
        "flood": int(60_000 * scale),
        "flood_counted": int(60_000 * scale),
        "scenario": max(3, int(40 * scale)),
    }
    builders: dict[str, Callable[[], int]] = {
        "cascade": bench_cascade(sizes["cascade"]),
        "timers": bench_timers(sizes["timers"]),
        "cancel_churn": bench_cancel_churn(sizes["cancel_churn"]),
        "flood": _build_flood(sizes["flood"], counted=False),
        "flood_counted": _build_flood(sizes["flood_counted"], counted=True),
        "scenario": bench_scenario(sizes["scenario"]),
    }
    metrics: dict[str, dict[str, float]] = {}
    for name, fn in builders.items():
        events, seconds = _time_best(fn)
        metrics[name] = {
            "events": events,
            "seconds": round(seconds, 6),
            "events_per_sec": round(events / seconds, 1) if seconds else 0.0,
        }
        print(f"{name:>14}: {events:>9} events  {seconds:8.4f}s  "
              f"{metrics[name]['events_per_sec']:>12,.0f} ev/s")
    return metrics


def collect_alloc(quick: bool) -> dict[str, dict[str, float]]:
    """Kernel-object allocations per event, from the pool counters.

    The freelist counters (:mod:`repro.sim.pool`) are exact and
    gc-independent — unlike net ``sys.getallocatedblocks()`` deltas,
    which miss churn that refcounting frees promptly — so they are the
    number the CI gate pins.  ``allocs_per_event`` counts handle +
    message *constructions* (pool misses) per simulator event; a warm
    freelist drives it toward zero.
    """
    scale = 0.1 if quick else 1.0
    out: dict[str, dict[str, float]] = {}

    # Flood shape: the send→deliver ping-pong of the flood metric.
    n_messages = int(60_000 * scale)
    sim = Simulator()
    network = Network(
        sim, 8,
        default_timing=Asynchronous(ConstantDelay(1.0)),
        rng=RngRegistry(0),
        recycle=True,
    )
    budget = [n_messages]

    def on_message(message) -> None:
        if budget[0] > 0:
            budget[0] -= 1
            network.send(message.dest, 1 + message.uid % 8, "PING", None)

    for pid in range(1, 9):
        network.register_process(pid, on_message)
    budget[0] -= 8
    for pid in range(1, 9):
        network.send(pid, 1 + pid % 8, "PING", None)
    sim.run()
    pools = sim.pools
    created = pools.created_total()
    reused = pools.reused_total()
    out["flood"] = {
        "events": sim.events_processed,
        "created": created,
        "reused": reused,
        "allocs_per_event": round(created / sim.events_processed, 4),
    }

    # Scenario shape: full runs through a shared KernelContext, whose
    # pools stay warm across runs exactly like a sweep worker's.
    from repro.orchestration.kernel import KernelContext
    from repro.orchestration.matrix import run_scenario as run_one

    context = KernelContext()
    spec = ScenarioSpec(
        n=4, t=1, topology="single_bisource", adversary="two_faced:evil",
        num_values=2, seed=1234,
    )
    n_runs = max(3, int(40 * scale))
    events = 0
    for _ in range(n_runs):
        outcome = run_one(spec, context=context)
        events += outcome.events_processed
    created = context.pools.created_total()
    reused = context.pools.reused_total()
    out["scenario"] = {
        "events": events,
        "created": created,
        "reused": reused,
        "allocs_per_event": round(created / events, 4) if events else 0.0,
    }
    for name, stats in out.items():
        print(f"{name:>14}: {stats['allocs_per_event']:.4f} allocs/event  "
              f"({stats['created']:,.0f} created, "
              f"{stats['reused']:,.0f} reused)")
    return out


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE)
    parser.add_argument("--label", default="kernel")
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller workloads (CI smoke)")
    args = parser.parse_args(argv)

    metrics = collect(args.quick)
    print()
    alloc = collect_alloc(args.quick)
    payload: dict[str, Any] = {
        "bench": "kernel_events",
        "label": args.label,
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
        "alloc": alloc,
    }
    if args.baseline.is_file():
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        speedups = {}
        for name, stats in metrics.items():
            base = baseline.get("metrics", {}).get(name)
            if base and base.get("events_per_sec"):
                speedups[name] = round(
                    stats["events_per_sec"] / base["events_per_sec"], 3
                )
        payload["baseline_label"] = baseline.get("label")
        payload["speedup_vs_baseline"] = speedups
        payload["speedup_geomean"] = round(geomean(list(speedups.values())), 3)
        print(f"\nspeedup vs {baseline.get('label')}: "
              + ", ".join(f"{k}={v}x" for k, v in speedups.items()))
        print(f"geomean: {payload['speedup_geomean']}x")
    # Zero-sink overhead: enabled instrumentation cost, for the record.
    flood, counted = metrics.get("flood"), metrics.get("flood_counted")
    if flood and counted and counted["events_per_sec"]:
        payload["instrumentation_overhead"] = round(
            flood["events_per_sec"] / counted["events_per_sec"], 3
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
