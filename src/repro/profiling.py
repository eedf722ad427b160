"""Virtual-time sweep profiler: where does sweep wall time actually go?

The PR 5 bench history caught the kernel getting *faster* while
end-to-end sweep throughput got *slower* — the classic sign that
the per-scenario harness (spec codec, cache keying, report
construction, JSONL encode), not the simulator, had become the
bottleneck.  This module makes that measurable instead of guessable, in
the spirit of the related work's "measure where latency actually
accrues before optimizing the consensus path" discipline (PAPERS.md).

Two instruments, one :class:`SweepProfiler`:

* **Wall-clock phase timers** around the harness stages a sweep
  runs per scenario — :data:`PHASE_EXPAND` (matrix expansion),
  :data:`PHASE_CACHE_KEY` (digest + store lookup),
  :data:`PHASE_BUILD_CONFIG`, :data:`PHASE_SIMULATE`,
  :data:`PHASE_REPORT` (outcome summarize + aggregation),
  :data:`PHASE_CACHE_PUT` and :data:`PHASE_JSONL`.  The phases tile the
  sweep, so their sum against the measured wall time (the
  :meth:`SweepProfiler.coverage` ratio) shows whether anything
  significant escaped the accounting.

* **A virtual-time step profiler** riding the zero-cost
  instrumentation bus (:mod:`repro.instrumentation`): a sink on the
  ``sim.step`` probe attributes the wall time between consecutive
  simulator events to the event that executed — labelled by the
  delivered message's ``tag`` for network deliveries and by the
  callback's qualified name otherwise.  That breaks the
  :data:`PHASE_SIMULATE` phase down *inside* the simulator, per
  protocol tag, without touching any kernel code: the kernel already
  publishes the probe, and with no profiler attached the call sites
  keep paying exactly one ``emit is None`` test.

Profiling is opt-in per sweep: the sweep
(:mod:`repro.orchestration.parallel`) installs the profiler as one of
the instruments of the process-local
:class:`~repro.orchestration.kernel.KernelContext` for the duration of
one sweep, :meth:`~repro.orchestration.kernel.KernelContext.fresh_bus`
re-arms the step sink before each run, and a pooled sweep runs each
worker chunk under the profiler's :meth:`SweepProfiler.twin` — same
``sim_steps`` / ``alloc`` configuration — whose export is merged back.
An unprofiled sweep executes the exact same code with
:meth:`~repro.orchestration.kernel.KernelContext.phase` handing out one
shared no-op scope — zero sinks, zero timers.

CLI faces: ``repro sweep --profile`` (breakdown table after any sweep)
and ``repro profile`` (dedicated command; ``--out profile.json`` also
writes the machine-readable snapshot).  See ``docs/profiling.md``.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Any, Callable

from .analysis.tables import format_table
from .instrumentation import (  # noqa: F401  (phase names re-exported)
    HARNESS_PHASES,
    PHASE_BUILD_CONFIG,
    PHASE_CACHE_KEY,
    PHASE_CACHE_PUT,
    PHASE_EXPAND,
    PHASE_JSONL,
    PHASE_POOL,
    PHASE_REPORT,
    PHASE_SIMULATE,
    SIM_STEP,
)

if TYPE_CHECKING:  # pragma: no cover
    from .instrumentation import InstrumentationBus

__all__ = [
    "HARNESS_PHASES",
    "PHASE_BUILD_CONFIG",
    "PHASE_CACHE_KEY",
    "PHASE_CACHE_PUT",
    "PHASE_EXPAND",
    "PHASE_JSONL",
    "PHASE_POOL",
    "PHASE_REPORT",
    "PHASE_SIMULATE",
    "PhaseStat",
    "SweepProfiler",
]

class PhaseStat:
    """Accumulated wall time and call count for one phase or sim label.

    ``blocks`` accumulates net ``sys.getallocatedblocks()`` deltas and
    only populates in allocation-profiling mode (``alloc=True``); the
    wall-time-only mode never touches it.
    """

    __slots__ = ("seconds", "calls", "blocks")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.blocks = 0

    def add(self, seconds: float, calls: int = 1, blocks: int = 0) -> None:
        self.seconds += seconds
        self.calls += calls
        self.blocks += blocks

    def __repr__(self) -> str:
        return f"PhaseStat(seconds={self.seconds:.6f}, calls={self.calls})"


class _Phase:
    """Reusable timing scope: ``with profiler.phase(name): ...``.

    A plain object with ``__enter__``/``__exit__`` (no contextlib
    generator machinery) so the per-scenario cost of a profiled sweep
    stays two clock reads per phase.
    """

    __slots__ = ("_stat", "_clock", "_started")

    def __init__(self, stat: PhaseStat, clock: Callable[[], float]) -> None:
        self._stat = stat
        self._clock = clock
        self._started = 0.0

    def __enter__(self) -> "_Phase":
        self._started = self._clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stat.add(self._clock() - self._started)


class _AllocPhase:
    """Timing scope that also books the phase's net allocated-block delta.

    The allocation-mode twin of :class:`_Phase`: two clock reads plus
    two ``sys.getallocatedblocks()`` reads per phase.  Deltas are *net*
    (allocations minus frees inside the scope), which is the right
    number for "how much does this phase churn the allocator" — a phase
    that allocates and promptly frees shows near zero, a phase that
    builds retained structures shows its real footprint.
    """

    __slots__ = ("_stat", "_clock", "_started", "_blocks")

    def __init__(self, stat: PhaseStat, clock: Callable[[], float]) -> None:
        self._stat = stat
        self._clock = clock
        self._started = 0.0
        self._blocks = 0

    def __enter__(self) -> "_AllocPhase":
        self._started = self._clock()
        self._blocks = sys.getallocatedblocks()
        return self

    def __exit__(self, *exc: Any) -> None:
        blocks = sys.getallocatedblocks() - self._blocks
        self._stat.add(self._clock() - self._started, 1, blocks)


class _Window:
    """Re-entrant wall-window scope (see :meth:`SweepProfiler.measuring`)."""

    __slots__ = ("_profiler", "_opened")

    def __init__(self, profiler: "SweepProfiler") -> None:
        self._profiler = profiler
        self._opened = False

    def __enter__(self) -> "SweepProfiler":
        self._opened = self._profiler._started is None
        if self._opened:
            self._profiler.start()
        return self._profiler

    def __exit__(self, *exc: Any) -> None:
        if self._opened:
            self._profiler.stop()


class SweepProfiler:
    """Phase accounting plus per-tag virtual-time attribution.

    Args:
        clock: Wall-clock source (injectable for deterministic tests);
            defaults to :func:`time.perf_counter`.
        sim_steps: Whether to arm the ``sim.step`` sink (the per-tag
            breakdown inside :data:`PHASE_SIMULATE`).  Costs one clock
            read per simulator event while profiling; phase timers alone
            are nearly free.
        alloc: Allocation-profiling mode (``repro profile --alloc``).
            Phase scopes and the step sink additionally record net
            ``sys.getallocatedblocks()`` deltas, and the wall window
            runs under :mod:`tracemalloc` so :attr:`traced_peak_kib`
            reports the traced-memory high-water mark.  Noticeably
            slower than plain profiling (tracemalloc hooks every
            allocation) — never armed on an unprofiled sweep.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sim_steps: bool = True,
        alloc: bool = False,
    ) -> None:
        self._clock = clock
        self.sim_steps = sim_steps
        self.alloc = alloc
        #: tracemalloc traced-memory high-water mark (KiB), alloc mode.
        self.traced_peak_kib = 0.0
        #: Net allocated-blocks delta across the wall window, alloc mode.
        self.blocks_delta = 0
        self._blocks_start = 0
        self._trace_started = False
        self.phases: dict[str, PhaseStat] = {}
        #: Wall time inside the simulator, keyed by event label
        #: (``tag:RB_ECHO`` for deliveries, callback qualname otherwise).
        self.sim_labels: dict[str, PhaseStat] = {}
        #: Simulator events observed by the step sink.
        self.sim_events = 0
        #: Runs the step sink was armed for.
        self.runs = 0
        self._started: float | None = None
        self._wall = 0.0
        # Pending attribution: (label, clock reading) of the event
        # whose execution is in progress.
        self._pending: tuple[str, float] | None = None

    # -- wall-clock window ----------------------------------------------

    def start(self) -> None:
        """Open the measured wall-time window (the whole sweep).

        A no-op while a window is already open, so nested scopes (a
        post-sweep :meth:`SweepResult.write_jsonl` inside a larger
        measured region) extend rather than reset the accounting.
        """
        if self._started is None:
            self._started = self._clock()
            if self.alloc:
                import tracemalloc

                self._blocks_start = sys.getallocatedblocks()
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    self._trace_started = True

    def stop(self) -> float:
        """Close the window; returns (and accumulates) its wall time."""
        if self._started is not None:
            self._wall += self._clock() - self._started
            self._started = None
            if self.alloc:
                import tracemalloc

                self.blocks_delta += (
                    sys.getallocatedblocks() - self._blocks_start
                )
                if tracemalloc.is_tracing():
                    _, peak = tracemalloc.get_traced_memory()
                    if peak / 1024.0 > self.traced_peak_kib:
                        self.traced_peak_kib = peak / 1024.0
                    if self._trace_started:
                        tracemalloc.stop()
                        self._trace_started = False
        return self.wall_seconds

    @property
    def wall_seconds(self) -> float:
        """Measured wall time (running total across start/stop windows)."""
        if self._started is not None:
            return self._wall + self._clock() - self._started
        return self._wall

    def measuring(self) -> "_Window":
        """Scope that keeps the wall window open for its duration.

        Opens a window only when none is active (and closes only what it
        opened), so phase work that happens *after* a sweep returned —
        the JSONL persist, a post-hoc aggregation — still counts toward
        measured wall time instead of pushing coverage past 100%.
        """
        return _Window(self)

    # -- phase timers ----------------------------------------------------

    def phase(self, name: str) -> "_Phase | _AllocPhase":
        """A ``with``-scope adding its wall time to phase ``name``."""
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = PhaseStat()
        if self.alloc:
            return _AllocPhase(stat, self._clock)
        return _Phase(stat, self._clock)

    def add(
        self, name: str, seconds: float, calls: int = 1, blocks: int = 0
    ) -> None:
        """Credit ``seconds`` to phase ``name`` directly (e.g. worker-
        reported chunk wall time from the worker pool)."""
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = PhaseStat()
        stat.add(seconds, calls, blocks)

    def phase_seconds(self, name: str) -> float:
        stat = self.phases.get(name)
        return stat.seconds if stat is not None else 0.0

    def coverage(self) -> float:
        """Sum of phase times over measured wall time (0.0 when no wall
        window was recorded).  Values near 1.0 mean the phases explain
        the sweep; a low value means unaccounted harness work."""
        wall = self.wall_seconds
        if wall <= 0:
            return 0.0
        return sum(stat.seconds for stat in self.phases.values()) / wall

    # -- virtual-time step sink ------------------------------------------

    def arm(self, bus: "InstrumentationBus") -> None:
        """Attach the ``sim.step`` sink on ``bus`` for one run.

        Called by :meth:`KernelContext.fresh_bus` after the per-run
        ``bus.clear()``, so the sink survives the re-arm that strips
        ordinary observers.  Resets the pending attribution: wall time
        between runs (harness work) must never be booked to the last
        event of the previous run.
        """
        self._flush_pending()
        if self.sim_steps:
            sink = self._on_step_alloc if self.alloc else self._on_step
            bus.probe(SIM_STEP).attach(sink)
            self.runs += 1

    def _on_step(self, handle: Any) -> None:
        now = self._clock()
        pending = self._pending
        if pending is not None:
            label, started = pending
            stat = self.sim_labels.get(label)
            if stat is None:
                stat = self.sim_labels[label] = PhaseStat()
            stat.add(now - started)
        self.sim_events += 1
        self._pending = (_event_label(handle), now)

    def _on_step_alloc(self, handle: Any) -> None:
        """Alloc-mode step sink: wall time *and* block delta per label."""
        now = self._clock()
        blocks = sys.getallocatedblocks()
        pending = self._pending
        if pending is not None:
            label, started, blocks0 = pending
            stat = self.sim_labels.get(label)
            if stat is None:
                stat = self.sim_labels[label] = PhaseStat()
            stat.add(now - started, 1, blocks - blocks0)
        self.sim_events += 1
        self._pending = (_event_label(handle), now, blocks)

    def _flush_pending(self) -> None:
        """Drop the attribution window left open by a run's final event
        (its cost cannot be separated from post-run harness work)."""
        if self._pending is not None:
            label = self._pending[0]
            stat = self.sim_labels.get(label)
            if stat is None:
                stat = self.sim_labels[label] = PhaseStat()
            stat.add(0.0)
            self._pending = None

    # -- cross-process merge ---------------------------------------------

    def twin(self) -> "SweepProfiler":
        """An empty profiler with this one's clock, ``sim_steps`` and
        ``alloc`` configuration (what a pool worker chunk runs under)."""
        return SweepProfiler(self._clock, self.sim_steps, self.alloc)

    def export(self) -> dict[str, Any]:
        """Picklable snapshot of the accumulated accounting.

        A pooled sweep runs a :meth:`twin` inside each worker chunk and
        ships this export back with the results; :meth:`merge_remote`
        folds it into the parent's profiler, so the phase table and
        per-tag breakdown cover worker-side work too.  Wall-window state
        is deliberately excluded — the measured window is the parent's.
        """
        self._flush_pending()
        return {
            "phases": {
                name: (stat.seconds, stat.calls, stat.blocks)
                for name, stat in self.phases.items()
            },
            "sim_labels": {
                name: (stat.seconds, stat.calls, stat.blocks)
                for name, stat in self.sim_labels.items()
            },
            "sim_events": self.sim_events,
            "runs": self.runs,
        }

    def merge_remote(self, data: dict[str, Any]) -> None:
        """Fold a worker's :meth:`export` into this profiler."""
        for name, entry in data["phases"].items():
            self.add(name, *entry)
        for name, entry in data["sim_labels"].items():
            stat = self.sim_labels.get(name)
            if stat is None:
                stat = self.sim_labels[name] = PhaseStat()
            stat.add(*entry)
        self.sim_events += data["sim_events"]
        self.runs += data["runs"]

    # -- reporting -------------------------------------------------------

    def to_dict(self, top_labels: int = 20) -> dict[str, Any]:
        """Machine-readable profile (the ``repro profile --out`` body).

        In allocation mode each phase/label additionally reports its
        net ``blocks`` delta, and a top-level ``alloc`` section carries
        the window-wide totals; the wall-time-only schema is unchanged
        (``tests/profiling/test_profile_schema.py`` pins it).
        """
        self._flush_pending()
        wall = self.wall_seconds
        alloc = self.alloc
        labels = sorted(
            self.sim_labels.items(), key=lambda kv: -kv[1].seconds
        )

        def phase_entry(stat: PhaseStat) -> dict[str, Any]:
            entry: dict[str, Any] = {
                "seconds": round(stat.seconds, 6),
                "calls": stat.calls,
            }
            if alloc:
                entry["blocks"] = stat.blocks
            return entry

        def label_entry(stat: PhaseStat) -> dict[str, Any]:
            entry: dict[str, Any] = {
                "seconds": round(stat.seconds, 6),
                "events": stat.calls,
            }
            if alloc:
                entry["blocks"] = stat.blocks
            return entry

        out = {
            "wall_seconds": round(wall, 6),
            "coverage": round(self.coverage(), 4),
            "phases": {
                name: phase_entry(stat)
                for name, stat in self._ordered_phases()
            },
            "sim": {
                "events": self.sim_events,
                "runs": self.runs,
                "labels": {
                    name: label_entry(stat)
                    for name, stat in labels[:top_labels]
                },
                "labels_truncated": max(0, len(labels) - top_labels),
            },
        }
        if alloc:
            out["alloc"] = {
                "blocks_delta": self.blocks_delta,
                "traced_peak_kib": round(self.traced_peak_kib, 1),
                "blocks_per_event": round(
                    sum(stat.blocks for stat in self.sim_labels.values())
                    / self.sim_events,
                    3,
                ) if self.sim_events else 0.0,
            }
        return out

    def render(self, top_labels: int = 12) -> str:
        """The human-readable per-phase / per-tag breakdown table."""
        self._flush_pending()
        wall = self.wall_seconds
        alloc = self.alloc
        accounted = sum(stat.seconds for stat in self.phases.values())

        def pct(seconds: float) -> str:
            return f"{100.0 * seconds / wall:.1f}%" if wall > 0 else "-"

        phase_header = ["phase", "seconds", "calls", "of wall"]
        if alloc:
            phase_header.append("blocks")
        rows = []
        for name, stat in self._ordered_phases():
            row = [name, f"{stat.seconds:.4f}", stat.calls, pct(stat.seconds)]
            if alloc:
                row.append(f"{stat.blocks:+,}")
            rows.append(row)
        total_row = ["(total accounted)", f"{accounted:.4f}", "",
                     pct(accounted)]
        wall_row = ["(measured wall)", f"{wall:.4f}", "", "100.0%"]
        if alloc:
            total_row.append(
                f"{sum(stat.blocks for stat in self.phases.values()):+,}"
            )
            wall_row.append(f"{self.blocks_delta:+,}")
        rows.append(total_row)
        rows.append(wall_row)
        out = [format_table(phase_header, rows)]
        if self.sim_labels:
            labels = sorted(
                self.sim_labels.items(), key=lambda kv: -kv[1].seconds
            )
            sim_header = ["sim event", "seconds", "events", "of wall"]
            if alloc:
                sim_header.append("blocks/ev")
            sim_rows = []
            for name, stat in labels[:top_labels]:
                row = [
                    name, f"{stat.seconds:.4f}", stat.calls, pct(stat.seconds)
                ]
                if alloc:
                    per_event = stat.blocks / stat.calls if stat.calls else 0.0
                    row.append(f"{per_event:+.2f}")
                sim_rows.append(row)
            rest = labels[top_labels:]
            if rest:
                rest_seconds = sum(stat.seconds for _, stat in rest)
                rest_events = sum(stat.calls for _, stat in rest)
                rest_row = [
                    f"(+{len(rest)} more)", f"{rest_seconds:.4f}",
                    rest_events, pct(rest_seconds),
                ]
                if alloc:
                    rest_blocks = sum(stat.blocks for _, stat in rest)
                    per_event = rest_blocks / rest_events if rest_events else 0.0
                    rest_row.append(f"{per_event:+.2f}")
                sim_rows.append(rest_row)
            out.append("")
            out.append(
                f"inside {PHASE_SIMULATE} — wall time per simulator event "
                f"({self.sim_events} events over {self.runs} run(s)):"
            )
            out.append(format_table(sim_header, sim_rows))
        if alloc:
            out.append("")
            out.append(
                f"alloc: net blocks {self.blocks_delta:+,} over the window, "
                f"tracemalloc peak {self.traced_peak_kib:,.1f} KiB"
            )
        return "\n".join(out)

    def _ordered_phases(self) -> list[tuple[str, PhaseStat]]:
        """Phases in canonical harness order, then extras by cost."""
        ordered = [
            (name, self.phases[name])
            for name in HARNESS_PHASES
            if name in self.phases
        ]
        extras = sorted(
            (
                (name, stat)
                for name, stat in self.phases.items()
                if name not in HARNESS_PHASES
            ),
            key=lambda kv: -kv[1].seconds,
        )
        return ordered + extras

    def __repr__(self) -> str:
        return (
            f"SweepProfiler(phases={len(self.phases)}, "
            f"sim_events={self.sim_events}, wall={self.wall_seconds:.4f}s)"
        )


def _event_label(handle: Any) -> str:
    """A stable, low-cardinality label for one scheduled event.

    Network deliveries carry the :class:`~repro.net.messages.Message`
    as the callback's first argument — label those by protocol tag,
    which is what the throughput question is usually about.  Everything
    else (task steps, timers, predicate rechecks) falls back to the
    callback's qualified name.
    """
    args = getattr(handle, "_args", None)
    if args:
        tag = getattr(args[0], "tag", None)
        if tag is not None:
            return f"tag:{tag}"
    callback = getattr(handle, "_callback", None)
    return getattr(callback, "__qualname__", None) or repr(callback)
