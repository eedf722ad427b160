"""Labelled counters for fleet telemetry.

The instrumentation bus (:mod:`repro.instrumentation`) gives the kernel
zero-cost *event streams*; this module gives the fleet zero-cost
*totals over them*.  A :class:`MetricsRegistry` is a namespace of named
:class:`Counter` families, each a set of label-keyed, monotonically
increasing series (messages sent per tag, scenarios executed, cache
hits).  Counters are the only kind: they are what the kernel sinks
write, what a pool worker can add back into its parent, and what the
event ledger records.

The registry honours the same contract as every other observer in this
codebase: **nothing attaches unless somebody asks**.  An unobserved run
never constructs a registry, so every kernel probe keeps ``emit is
None`` and the hot path pays exactly one pointer test per call site.
When a sweep *is* observed, the registry is one of the instruments of
the :class:`KernelContext <repro.orchestration.kernel.KernelContext>`
and shares the profiler's lifecycle: :meth:`MetricsRegistry.arm`
attaches three sinks to the kernel probes (``net.send``,
``net.deliver``, ``sim.step``), re-armed per run by
:meth:`KernelContext.fresh_bus
<repro.orchestration.kernel.KernelContext.fresh_bus>`; a pooled sweep's
workers count into the registry's :meth:`MetricsRegistry.twin`, whose
:meth:`MetricsRegistry.export` the parent folds in with
:meth:`MetricsRegistry.merge_remote`.  The sweep bumps the
harness-level counters directly.

Metrics are process-local and in-memory.
:meth:`MetricsRegistry.snapshot` renders the whole registry as one
JSON-friendly dict, which the event ledger (:mod:`repro.obs.events`)
embeds into ``sweep_finished`` / ``unit_completed`` events so a fleet's
numbers survive the processes that produced them.  See
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..instrumentation import NET_DELIVER, NET_SEND, SIM_STEP, InstrumentationBus

__all__ = ["Counter", "MetricsRegistry"]

#: A label set, canonicalised to a sorted item tuple so ``{"a":1,"b":2}``
#: and ``{"b":2,"a":1}`` key the same series.
_LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing total, per label set."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current total for one label set (0.0 if never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._series.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of every series of this family."""
        return {
            "type": "counter",
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class MetricsRegistry:
    """A namespace of counters plus the kernel-probe sinks that feed it.

    The get-or-create accessor :meth:`counter` makes registration order
    irrelevant.
    """

    __slots__ = ("_metrics", "armed_runs", "_kernel_sinks")

    #: Kernel metric names fed by :meth:`arm`.
    KERNEL_SENT = "kernel.messages_sent"
    KERNEL_DELIVERED = "kernel.messages_delivered"
    KERNEL_STEPS = "kernel.sim_steps"
    KERNEL_RUNS = "kernel.runs"

    def __init__(self) -> None:
        self._metrics: dict[str, Counter] = {}
        #: Runs the kernel sinks were armed for (introspection).
        self.armed_runs = 0
        #: Precompiled kernel sinks, built lazily on first :meth:`arm`.
        self._kernel_sinks: dict[str, Any] | None = None

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name, help)
        return metric

    def get(self, name: str) -> Counter | None:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- kernel sinks ----------------------------------------------------

    def arm(self, bus: "InstrumentationBus") -> None:
        """Attach the kernel counting sinks on ``bus`` for one run.

        Called by :meth:`KernelContext.fresh_bus
        <repro.orchestration.kernel.KernelContext.fresh_bus>` after the
        per-run ``bus.clear()`` — the same re-arm discipline as the
        profiler's step sink, so metrics survive the per-run observer
        strip while unobserved runs attach nothing at all.
        """
        sinks = self._kernel_sinks
        if sinks is None:
            sinks = self._kernel_sinks = self._compile_kernel_sinks()
        bus.attach_many(sinks)
        self.counter(self.KERNEL_RUNS).inc()
        self.armed_runs += 1

    def _compile_kernel_sinks(self) -> dict[str, Any]:
        """Build the three kernel sinks as closures over the series dicts.

        These run once per message / sim step of every *observed* run, so
        the generic ``counter(name).inc(tag=...)`` path (metric lookup,
        kwargs packing, ``sorted()`` label canonicalisation) is hoisted
        out: each closure binds its family's ``_series`` dict directly
        and writes the canonical label key inline.  Snapshot output is
        identical — the same series dicts are mutated either way.
        """
        sent = self.counter(self.KERNEL_SENT)._series
        delivered = self.counter(self.KERNEL_DELIVERED)._series
        steps = self.counter(self.KERNEL_STEPS)._series

        def on_send(message: Any, time: float) -> None:
            key = (("tag", message.tag),)
            sent[key] = sent.get(key, 0.0) + 1.0

        def on_deliver(message: Any, time: float) -> None:
            key = (("tag", message.tag),)
            delivered[key] = delivered.get(key, 0.0) + 1.0

        def on_step(handle: Any) -> None:
            steps[()] = steps.get((), 0.0) + 1.0

        return {NET_SEND: on_send, NET_DELIVER: on_deliver, SIM_STEP: on_step}

    # -- cross-process merge ---------------------------------------------

    def twin(self) -> "MetricsRegistry":
        """An empty registry (what a pool worker chunk counts into)."""
        return MetricsRegistry()

    def export(self) -> dict[str, Any]:
        """Picklable snapshot of every counter series.

        A pooled sweep arms a :meth:`twin` inside the worker and ships
        this back in the chunk reply; :meth:`merge_remote` folds it into
        the parent's registry, so kernel counters accumulate at any
        worker count.
        """
        return {
            name: list(metric._series.items())
            for name, metric in self._metrics.items()
        }

    def merge_remote(self, data: dict[str, Any]) -> None:
        """Fold a worker's :meth:`export` into this registry."""
        for name, entries in data.items():
            series = self.counter(name)._series
            for key, value in entries:
                series[key] = series.get(key, 0.0) + value

    # -- snapshot --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as one JSON-friendly dict, sorted by name."""
        return {
            name: self._metrics[name].to_dict()
            for name in sorted(self._metrics)
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(metrics={len(self._metrics)}, "
            f"armed_runs={self.armed_runs})"
        )
