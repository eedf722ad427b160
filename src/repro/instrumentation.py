"""Zero-cost-when-idle instrumentation bus for the simulation kernel.

The kernel's observability used to be an ad-hoc list of network hooks:
every ``send`` and every delivery iterated the hook list even when it
was empty, and every observer (message counters, tracers) paid a Python
call per message whether or not anyone read its output.  Under the
paper's system model (Section 2.1 — local processing is instantaneous,
so runs are dominated by dense message cascades) that tax lands on the
hottest path in the whole system.

This module replaces the hook list with *probes*.  A :class:`Probe` is
one named event stream with a compiled ``emit`` attribute:

* **no sinks attached** — ``emit`` is ``None``, so an instrumented call
  site pays exactly one attribute load and one ``is None`` test;
* **one sink** — ``emit`` *is* the sink (no dispatch wrapper at all);
* **several sinks** — ``emit`` is a tiny closure over a tuple of sinks.

Call sites therefore follow one idiom::

    emit = self._send_probe.emit
    if emit is not None:
        emit(message, now)

An :class:`InstrumentationBus` is a namespace of probes shared by the
kernel components of one run: the simulator registers ``sim.step``, the
network registers ``net.send`` and ``net.deliver``, and analysis-side
observers (:class:`~repro.analysis.metrics.MessageCounter`,
:class:`~repro.analysis.traces.Tracer`) attach as sinks instead of
hooks.  Probe payloads are positional and minimal — ``(message, time)``
for network probes, ``(handle,)`` for the scheduler probe — so an
attached sink costs one Python call, and a detached one costs nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

__all__ = [
    "HARNESS_PHASES",
    "NET_DELIVER",
    "NET_SEND",
    "PHASE_BUILD_CONFIG",
    "PHASE_CACHE_KEY",
    "PHASE_CACHE_PUT",
    "PHASE_EXPAND",
    "PHASE_JSONL",
    "PHASE_POOL",
    "PHASE_REPORT",
    "PHASE_SIMULATE",
    "SIM_STEP",
    "InstrumentationBus",
    "Probe",
    "phase",
]

#: Standard kernel probe names.
NET_SEND = "net.send"
NET_DELIVER = "net.deliver"
SIM_STEP = "sim.step"

#: The per-scenario harness stages a profiler times, in sweep order.
#: They live here, with the probe names and the shared :func:`phase`
#: scope, so the sweep can time a stage without importing
#: :mod:`repro.profiling`.
PHASE_EXPAND = "expand"
PHASE_CACHE_KEY = "cache_key"
PHASE_BUILD_CONFIG = "build_config"
PHASE_SIMULATE = "simulate"
PHASE_REPORT = "report_construct"
PHASE_CACHE_PUT = "cache_put"
PHASE_JSONL = "jsonl_encode"
#: Parent-side pool overhead: shipping chunks, waiting on replies,
#: decoding result batches.  Only populates on a pooled sweep.
PHASE_POOL = "pool_dispatch"

#: Canonical display order for the phase table.
HARNESS_PHASES = (
    PHASE_EXPAND,
    PHASE_CACHE_KEY,
    PHASE_BUILD_CONFIG,
    PHASE_SIMULATE,
    PHASE_POOL,
    PHASE_REPORT,
    PHASE_CACHE_PUT,
    PHASE_JSONL,
)



class _NullPhase:
    """No-op timing scope for the unprofiled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_PHASE = _NullPhase()


def phase(profiler: Any | None, name: str) -> Any:
    """``profiler.phase(name)``, or one shared no-op scope when unprofiled
    — so a timed stage is written once, not once per mode."""
    return _NULL_PHASE if profiler is None else profiler.phase(name)


Sink = Callable[..., None]


class Probe:
    """One named event stream with a compiled emit path.

    ``emit`` is ``None`` while no sink is attached; instrumented call
    sites must check for that (the whole point is that the idle path
    compiles down to a single comparison).
    """

    __slots__ = ("name", "emit", "_sinks")

    def __init__(self, name: str) -> None:
        self.name = name
        self._sinks: list[Sink] = []
        #: ``None`` (idle), the single sink itself, or a fan-out closure.
        self.emit: Sink | None = None

    def attach(self, sink: Sink) -> Sink:
        """Add a sink; returns it (handy for detach bookkeeping)."""
        self._sinks.append(sink)
        self._recompile()
        return sink

    def detach(self, sink: Sink) -> bool:
        """Remove one previously attached sink; False if absent."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            return False
        self._recompile()
        return True

    def clear(self) -> None:
        """Detach every sink (the probe goes back to zero cost)."""
        self._sinks.clear()
        self.emit = None

    @property
    def sinks(self) -> tuple[Sink, ...]:
        """The attached sinks, in attach order."""
        return tuple(self._sinks)

    def _recompile(self) -> None:
        if not self._sinks:
            self.emit = None
        elif len(self._sinks) == 1:
            self.emit = self._sinks[0]
        else:
            sinks = tuple(self._sinks)

            def fan_out(*args: Any) -> None:
                for sink in sinks:
                    sink(*args)

            self.emit = fan_out

    def __bool__(self) -> bool:
        return bool(self._sinks)

    def __repr__(self) -> str:
        return f"Probe({self.name!r}, sinks={len(self._sinks)})"


class InstrumentationBus:
    """A namespace of probes shared by the components of one run.

    Components *publish* probes with :meth:`probe` (get-or-create, so
    publication order does not matter); observers *subscribe* with
    :meth:`attach`.  A bus is cheap enough to create per run, and a
    long-lived bus (e.g. one per sweep worker) can be re-armed between
    runs because sinks — not probes — carry all the state.
    """

    __slots__ = ("_probes",)

    def __init__(self) -> None:
        self._probes: dict[str, Probe] = {}

    def probe(self, name: str) -> Probe:
        """The probe called ``name``, created on first use."""
        probe = self._probes.get(name)
        if probe is None:
            probe = self._probes[name] = Probe(name)
        return probe

    def attach(self, name: str, sink: Sink) -> Sink:
        """Attach ``sink`` to the probe called ``name``."""
        return self.probe(name).attach(sink)

    def detach(self, name: str, sink: Sink) -> bool:
        """Detach ``sink`` from the probe called ``name``."""
        probe = self._probes.get(name)
        return probe.detach(sink) if probe is not None else False

    def attach_many(self, sinks: "dict[str, Sink]") -> None:
        """Attach one sink per probe name (observers arming several at once)."""
        for name, sink in sinks.items():
            self.probe(name).attach(sink)

    def clear(self) -> None:
        """Detach every sink from every probe (probes survive)."""
        for probe in self._probes.values():
            probe.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def __iter__(self) -> Iterator[Probe]:
        return iter(self._probes.values())

    def __repr__(self) -> str:
        active = sum(1 for probe in self._probes.values() if probe)
        return f"InstrumentationBus(probes={len(self._probes)}, active={active})"
