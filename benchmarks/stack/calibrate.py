"""Core-speed calibration for the end-to-end passes.

The box gives the benchmark a few vCPUs of a shared host, and the speed
of one vCPU moves by 30-50 % in bursts of one to five seconds (a busy
hyper-thread sibling, most likely): identical work takes 2.1 s or 3.1 s
of *CPU time*, the two vCPUs do not move together, and neither a longer
window nor any order statistic of the walls steadies the result.  So
the end-to-end passes measure the core while they use it: a calibrator
process shares the measured commands' CPU and, every ``GAP_S``, runs one
burst of fixed work shaped like the program's own (heap, small objects,
dict updates, method calls) and times it in CPU seconds.  The mean burst
over the time a repeat's commands ran, divided by ``REFERENCE_BURST_S``,
is how slow the core was for that repeat; its wall divided by that is
what the repeat would have taken on the reference core.

Run as a script, this file *is* the calibrator process: it prints
``ready``, samples until SIGTERM (or until its parent is gone), then
prints its samples as one JSON line of ``[start, burst_cpu_s]`` pairs;
``start`` is ``time.perf_counter()``, CLOCK_MONOTONIC on Linux, so the
parent can match samples to its own command intervals.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import subprocess
import sys
import time
from typing import Sequence

#: Work items per burst (about 2 ms) and the sleep between bursts: the
#: calibrator takes about 8 % of the CPU it shares.
BURST_ITEMS = 2000
GAP_S = 0.025
#: CPU seconds one burst takes on the reference core: the median on the
#: box the first baseline was taken on (2-vCPU Xeon @ 2.1 GHz VM, Python
#: 3.11), so a reference second is about a wall second there.
REFERENCE_BURST_S = 2.3e-3
#: The calibrator gives up on its own after this long, whatever happens
#: to the benchmark that started it.
MAX_LIFETIME_S = 600.0


class _Message:
    __slots__ = ("src", "dst", "tag", "payload")

    def __init__(self, src: int, dst: int, tag: str, payload: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload


class _Node:
    def __init__(self) -> None:
        self.seen: dict[tuple[int, str, int], int] = {}
        self.count = 0

    def handle(self, message: _Message) -> int:
        key = (message.src, message.tag, message.payload)
        count = self.seen.get(key, 0) + 1
        self.seen[key] = count
        self.count += 1
        return count


def burst(nodes: list[_Node], items: int = BURST_ITEMS) -> int:
    """One burst: ``items`` messages through a heap into 16 nodes."""
    heap: list[tuple[int, int, _Message]] = []
    push, pop = heapq.heappush, heapq.heappop
    total = 0
    for i in range(items):
        message = _Message(i & 15, (i * 5) & 15, "T%d" % (i & 3), i & 255)
        push(heap, ((i * 7919) & 1023, i, message))
        if i & 1:
            _, _, due = pop(heap)
            total += nodes[due.dst].handle(due)
    for node in nodes:
        if len(node.seen) > 4096:
            node.seen.clear()
    return total


def calibrator_main() -> int:
    stop = False

    def on_term(*_: object) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    parent = os.getppid()
    nodes = [_Node() for _ in range(16)]
    burst(nodes)
    samples: list[tuple[float, float]] = []
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    deadline = time.perf_counter() + MAX_LIFETIME_S
    while not stop and os.getppid() == parent:
        started = time.perf_counter()
        if started > deadline:
            break
        cpu = time.thread_time()
        burst(nodes)
        samples.append((started, time.thread_time() - cpu))
        time.sleep(GAP_S)
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


def slowness(
    samples: Sequence[Sequence[float]],
    intervals: Sequence[tuple[float, float]],
) -> float:
    """Mean burst time of the samples that started inside any of
    ``intervals`` (``perf_counter`` pairs), over the reference burst:
    above 1 the core was slower than the reference core."""
    inside = [
        cpu for started, cpu in samples
        if any(lo <= started <= hi for lo, hi in intervals)
    ]
    if not inside:
        raise ValueError("no calibration sample inside the timed intervals")
    return sum(inside) / len(inside) / REFERENCE_BURST_S


def pin_to_one_cpu() -> set[int] | None:
    """Pin this process (and so every child it starts from now on) to the
    highest-numbered CPU it may use: the calibrator only sees the core
    the measured commands run on, and CPU 0 takes most interrupts.
    Returns the previous affinity for :func:`unpin`, ``None`` where
    affinity cannot be set."""
    try:
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(before)})
    except (AttributeError, OSError):
        return None
    return set(before)


def unpin(before: set[int] | None) -> None:
    if before is not None:
        os.sched_setaffinity(0, before)


class Calibrator:
    """The calibrator process, from the parent's side.  A context
    manager: the process is stopped and waited for on every way out."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self._proc: subprocess.Popen[str] | None = None

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, text=True,
        )
        assert self._proc.stdout is not None
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the calibrator did not start")
        return self

    def __exit__(self, *exc: object) -> None:
        proc = self._proc
        if proc is None:
            return
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
            self.samples = json.loads(out.splitlines()[-1]) if out.strip() else []
        except (subprocess.TimeoutExpired, ValueError):
            proc.kill()
            proc.wait()
            self.samples = []
        self._proc = None


if __name__ == "__main__":
    sys.exit(calibrator_main())
