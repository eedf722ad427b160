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
  so sweeps do not churn probe/bus objects per scenario;
* the **active instruments** — the sinks one sweep (or one pool chunk)
  observes through: installed by :meth:`KernelContext.instrumented`,
  armed on the bus per run by :meth:`KernelContext.fresh_bus`.

Per-run state (simulator, network, processes, protocol stacks) is still
built fresh for every scenario — determinism demands it — but the
context trims the per-scenario overhead to exactly that.

:func:`default_context` returns the process-local context that
:func:`~repro.orchestration.matrix.run_scenario` (and therefore every
sweep and pool worker) uses implicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..instrumentation import InstrumentationBus
from ..instrumentation import phase as phase_scope
from ..sim.pool import ObjectPools
from .axes import adversary_from_name, topology_from_name

if TYPE_CHECKING:  # pragma: no cover
    from ..adversary.strategies import AdversarySpec
    from ..net.topology import Topology

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
        #: The active instruments, in install order: sinks on :attr:`bus`
        #: sharing one interface — ``arm(bus)`` once per run,
        #: ``export()`` / ``merge_remote(data)`` across a process
        #: boundary, ``twin()`` for an empty copy with the same
        #: configuration (:class:`~repro.profiling.SweepProfiler`,
        #: :class:`~repro.obs.metrics.MetricsRegistry`).  Set only by
        #: :meth:`instrumented`; an unobserved run loops over an empty
        #: tuple in :meth:`fresh_bus` and every probe keeps ``emit`` at
        #: ``None``.
        self.instruments: tuple[Any, ...] = ()
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

    @contextmanager
    def instrumented(self, instruments: Iterable[Any]) -> Iterator[None]:
        """Scope installing ``instruments`` for its body (one sweep, one
        pool chunk); the previous set is back on exit, also when the body
        raises."""
        previous, self.instruments = self.instruments, tuple(instruments)
        try:
            yield
        finally:
            self.instruments = previous

    def phase(self, name: str) -> Any:
        """A ``with``-scope timing harness stage ``name`` on the first
        installed instrument that times phases (the sweep's profiler), or
        one shared no-op scope when none does."""
        for instrument in self.instruments:
            if hasattr(instrument, "phase"):
                return instrument.phase(name)
        return phase_scope(None, name)

    def fresh_bus(self) -> InstrumentationBus:
        """The shared bus, re-armed (every sink detached) for a new run."""
        self.bus.clear()
        self.runs += 1
        for instrument in self.instruments:
            instrument.arm(self.bus)
        return self.bus

    def clear(self) -> None:
        """Drop every cached object and installed instrument and zero the
        counters (tests; registry mutations; a forked pool worker, which
        must account for its own work only)."""
        self._topologies.clear()
        self._adversaries.clear()
        self.bus.clear()
        self.pools.clear()
        self.instruments = ()
        self.runs = 0
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
