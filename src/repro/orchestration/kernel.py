"""Reusable per-worker execution context for the scenario fast path.

A sweep dispatches thousands of :class:`~repro.orchestration.matrix.ScenarioSpec`
cells into worker processes, and each cell used to rebuild *everything*
from scratch: topology objects, adversary specs, proposal profiles, hook
lists and counters.  Most of that is pure, spec-keyed data — identical
across the cells of one grid — so rebuilding it per scenario is wasted
allocation on the hottest orchestration path.

:class:`KernelContext` is the per-worker home for that reusable state:

* **topology cache** — ``(kind, n) -> Topology``; timing models are
  stateless (all per-run state lives in the lazily materialized
  channels), so one instance safely serves every run in the process;
* **adversary cache** — ``name -> AdversarySpec``; specs are read-only
  descriptions, shared freely;
* a **shared instrumentation bus** created once and re-armed per run,
  so sweeps do not churn probe/bus objects per scenario.

Per-run state (simulator, network, processes, protocol stacks) is still
built fresh for every scenario — determinism demands it — but the
context trims the per-scenario overhead to exactly that.

:func:`default_context` returns the process-local context that
:func:`~repro.orchestration.matrix.run_scenario` (and therefore every
sweep and pool worker) uses implicitly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..instrumentation import InstrumentationBus
from ..sim.pool import ObjectPools
from .axes import adversary_from_name, topology_from_name

if TYPE_CHECKING:  # pragma: no cover
    from ..adversary.strategies import AdversarySpec
    from ..net.topology import Topology
    from ..profiling import SweepProfiler

__all__ = ["KernelContext", "default_context"]


class KernelContext:
    """Process-local reusable state for executing scenario specs."""

    def __init__(self) -> None:
        self._topologies: dict[tuple[str, int], "Topology | None"] = {}
        self._adversaries: dict[str, "AdversarySpec | None"] = {}
        #: Shared bus for runs executed through this context.  Cleared
        #: (all sinks detached) before each run, so one scenario's
        #: observers can never leak into the next.
        self.bus = InstrumentationBus()
        #: Shared object freelists / intern tables
        #: (:class:`~repro.sim.pool.ObjectPools`).  Handles and messages
        #: retired by one scenario are re-stamped by the next, so a warm
        #: worker stops allocating kernel objects almost entirely.
        self.pools = ObjectPools()
        #: Scenarios executed through this context (introspection).
        self.runs = 0
        #: Active :class:`~repro.profiling.SweepProfiler`, or ``None``.
        #: Set by the sweep for the duration of one profiled
        #: sweep; :meth:`fresh_bus` re-arms its ``sim.step`` sink after
        #: each per-run ``bus.clear()``.  The unprofiled fast path pays
        #: one ``is None`` test per run.
        self.profiler: "SweepProfiler | None" = None
        #: Active :class:`~repro.obs.metrics.MetricsRegistry`, or
        #: ``None``.  Same lifecycle as :attr:`profiler`: the sweep
        #: installs it for one observed sweep, and
        #: :meth:`fresh_bus` re-arms its kernel counting sinks per run.
        #: Unobserved runs pay one ``is None`` test here and keep every
        #: probe's ``emit`` at ``None``.
        self.metrics: Any | None = None
        #: Warm-cache accounting: how often a lookup was served from the
        #: context instead of rebuilt.  The worker pool round-trips
        #: these (:meth:`stats`) to prove worker reuse across sweeps and
        #: dispatch units.
        self.topology_hits = 0
        self.topology_misses = 0
        self.adversary_hits = 0
        self.adversary_misses = 0

    def topology(self, kind: str, n: int) -> "Topology | None":
        """The (cached) topology instance for ``kind`` at size ``n``.

        ``None`` stands for the runner's minimal single-bisource default,
        which depends on the correct-process set and is built per run.
        Cached instances are safe to share: timing models are stateless
        maps from send time to delivery time.
        """
        key = (kind, n)
        try:
            cached = self._topologies[key]
        except KeyError:
            cached = self._topologies[key] = topology_from_name(kind, n)
            self.topology_misses += 1
        else:
            self.topology_hits += 1
        return cached

    def adversary(self, name: str) -> "AdversarySpec | None":
        """The (cached) adversary spec for ``"kind"`` / ``"kind:arg"``."""
        try:
            cached = self._adversaries[name]
        except KeyError:
            cached = self._adversaries[name] = adversary_from_name(name)
            self.adversary_misses += 1
        else:
            self.adversary_hits += 1
        return cached

    def stats(self) -> dict[str, int]:
        """Warm-reuse counters as one JSON-friendly dict."""
        return {
            "runs": self.runs,
            "topologies": len(self._topologies),
            "adversaries": len(self._adversaries),
            "topology_hits": self.topology_hits,
            "topology_misses": self.topology_misses,
            "adversary_hits": self.adversary_hits,
            "adversary_misses": self.adversary_misses,
            **self.pools.counters(),
        }

    def fresh_bus(self) -> InstrumentationBus:
        """The shared bus, re-armed (every sink detached) for a new run."""
        self.bus.clear()
        self.runs += 1
        if self.profiler is not None:
            self.profiler.arm(self.bus)
        if self.metrics is not None:
            self.metrics.arm(self.bus)
        return self.bus

    def clear(self) -> None:
        """Drop every cached object (tests; registry mutations)."""
        self._topologies.clear()
        self._adversaries.clear()
        self.bus.clear()
        self.pools.clear()
        self.topology_hits = self.topology_misses = 0
        self.adversary_hits = self.adversary_misses = 0

    def __repr__(self) -> str:
        return (
            f"KernelContext(runs={self.runs}, "
            f"topologies={len(self._topologies)}, "
            f"adversaries={len(self._adversaries)})"
        )


#: The process-local context (one per worker; workers are processes).
_DEFAULT: KernelContext | None = None


def default_context() -> KernelContext:
    """The process-local :class:`KernelContext`, created on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelContext()
    return _DEFAULT
