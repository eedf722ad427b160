"""Labelled counters, gauges and histograms for fleet telemetry.

The instrumentation bus (:mod:`repro.instrumentation`) gives the kernel
zero-cost *event streams*; this module gives the fleet zero-cost
*aggregates over them*.  A :class:`MetricsRegistry` is a namespace of
named metrics, each a family of label-keyed series:

* :class:`Counter` — monotonically increasing totals (messages sent,
  scenarios executed, cache hits);
* :class:`Gauge` — last-written values (scenarios in flight, queue
  depth);
* :class:`Histogram` — bucketed distributions (per-scenario wall time).

The registry honours the same contract as every other observer in this
codebase: **nothing attaches unless somebody asks**.  An unobserved run
never constructs a registry, so every kernel probe keeps ``emit is
None`` and the hot path pays exactly one pointer test per call site.
When a sweep *is* observed, :meth:`MetricsRegistry.arm` attaches three
sinks to the kernel probes (``net.send``, ``net.deliver``, ``sim.step``)
— re-armed per run by :meth:`KernelContext.fresh_bus
<repro.orchestration.kernel.KernelContext.fresh_bus>`, exactly like the
profiler — and the sweep bumps the harness-level counters
directly.

Metrics are process-local and in-memory; a pooled sweep's workers count
into chunk-local registries whose :meth:`MetricsRegistry.export` the
parent folds in with :meth:`MetricsRegistry.merge_remote`.
:meth:`MetricsRegistry.snapshot` renders the whole registry as one
JSON-friendly dict, which the event ledger (:mod:`repro.obs.events`)
embeds into ``sweep_finished`` / ``unit_completed`` events so a fleet's
numbers survive the processes that produced them.  See
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..instrumentation import NET_DELIVER, NET_SEND, SIM_STEP, InstrumentationBus

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (seconds-flavoured: a scenario
#: takes milliseconds, a shard unit minutes).  ``inf`` is implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: A label set, canonicalised to a sorted item tuple so ``{"a":1,"b":2}``
#: and ``{"b":2,"a":1}`` key the same series.
_LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared shape of one metric family: name, help text, series map."""

    kind = "untyped"

    __slots__ = ("name", "help")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _series_dicts(self) -> list[dict[str, Any]]:  # pragma: no cover
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of every series of this family."""
        return {
            "type": self.kind,
            "help": self.help,
            "series": self._series_dicts(),
        }


class Counter(_Metric):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    __slots__ = ("_series",)

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
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

    def _series_dicts(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Gauge(_Metric):
    """A last-written value, per label set."""

    kind = "gauge"

    __slots__ = ("_series",)

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def _series_dicts(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Histogram(_Metric):
    """A bucketed distribution, per label set.

    Buckets are cumulative upper bounds (Prometheus-style), with an
    implicit ``+Inf`` bucket; ``sum`` and ``count`` ride along so means
    survive snapshotting.
    """

    kind = "histogram"

    __slots__ = ("buckets", "_series")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs >= 1 bucket")
        self.buckets = bounds
        # key -> [bucket counts..., +Inf count, sum, count]
        self._series: dict[_LabelKey, list[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = [0.0] * (len(self.buckets) + 3)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state[i] += 1
                break
        else:
            state[len(self.buckets)] += 1
        state[-2] += value
        state[-1] += 1

    def count(self, **labels: Any) -> int:
        state = self._series.get(_label_key(labels))
        return int(state[-1]) if state is not None else 0

    def sum(self, **labels: Any) -> float:
        state = self._series.get(_label_key(labels))
        return state[-2] if state is not None else 0.0

    def _series_dicts(self) -> list[dict[str, Any]]:
        out = []
        for key, state in sorted(self._series.items()):
            cumulative, running = [], 0.0
            for i in range(len(self.buckets) + 1):
                running += state[i]
                cumulative.append(running)
            out.append({
                "labels": dict(key),
                "buckets": [
                    {"le": bound, "count": cumulative[i]}
                    for i, bound in enumerate(self.buckets)
                ] + [{"le": "+Inf", "count": cumulative[-1]}],
                "sum": state[-2],
                "count": state[-1],
            })
        return out


class MetricsRegistry:
    """A namespace of metrics plus the kernel-probe sinks that feed it.

    Get-or-create accessors (:meth:`counter` / :meth:`gauge` /
    :meth:`histogram`) make registration order irrelevant; asking for an
    existing name with a different type raises, because two writers
    silently sharing a name would corrupt both series.
    """

    __slots__ = ("_metrics", "armed_runs", "_kernel_sinks")

    #: Kernel metric names fed by :meth:`arm`.
    KERNEL_SENT = "kernel.messages_sent"
    KERNEL_DELIVERED = "kernel.messages_delivered"
    KERNEL_STEPS = "kernel.sim_steps"
    KERNEL_RUNS = "kernel.runs"

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        #: Runs the kernel sinks were armed for (introspection).
        self.armed_runs = 0
        #: Precompiled kernel sinks, built lazily on first :meth:`arm`.
        self._kernel_sinks: dict[str, Any] | None = None

    def _get(self, name: str, cls: type, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
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

    def export(self) -> dict[str, Any]:
        """Picklable snapshot of every counter series.

        A pooled sweep arms a chunk-local registry inside the worker and
        ships this back in the chunk reply, in the same dict as the
        chunk profiler's :meth:`~repro.profiling.SweepProfiler.export`
        (the keys are disjoint); :meth:`merge_remote` folds it into the
        parent's registry, so kernel counters accumulate at any worker
        count.  Counters only: a worker-side registry is fed by the
        kernel sinks, which write nothing else.
        """
        return {
            "counters": {
                metric.name: list(metric._series.items())
                for metric in self._metrics.values()
                if type(metric) is Counter
            }
        }

    def merge_remote(self, data: dict[str, Any]) -> None:
        """Fold a worker's :meth:`export` into this registry."""
        for name, entries in data.get("counters", {}).items():
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
