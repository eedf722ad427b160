"""Fleet and run telemetry: metrics, event ledger, fleet view, traces.

The observability layer over the simulation platform, built on the same
contract as the instrumentation bus it rides: **nothing costs anything
until somebody asks**.  An unobserved run constructs no registry and no
ledger, every kernel probe keeps ``emit is None``, and the
sweep's ``on_result`` / ``metrics`` stay ``None`` — telemetry is opt-in
per sweep, never ambient.

* :mod:`repro.obs.metrics` — labelled counters; the registry is a
  sweep instrument with the profiler's lifecycle (installed on the
  kernel context, armed on its bus per run, twinned into pool chunks
  and merged back);
* :mod:`repro.obs.events` — the append-only JSONL event ledger every
  fleet worker shares (``repro events tail`` / ``query``);
* :mod:`repro.obs.telemetry` — ledger + registry behind the sweep's
  one outcome hook, ``on_result(outcome, cached)`` (orchestration never
  imports this package at run time);
* :mod:`repro.obs.fleet` — the live ``repro top`` view derived from
  lease heartbeats;
* :mod:`repro.obs.chrometrace` — Trace Event Format export for
  Perfetto / ``chrome://tracing`` (``repro trace``).

The walkthrough lives in ``docs/observability.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .events import (
        EVENT_CACHE_HIT, EVENT_CACHE_MISS, EVENT_CHECK_FINISHED,
        EVENT_CHECK_PROGRESS, EVENT_CHECK_STARTED, EVENT_SHARD_FOLDED,
        EVENT_SWEEP_FINISHED, EVENT_SWEEP_STARTED, EVENT_UNIT_CLAIMED,
        EVENT_UNIT_COMPLETED, EVENT_UNIT_RECLAIMED,
        EVENT_UNIT_RELEASED, EVENT_UNIT_RENEWED, EventLedger,
        LEDGER_NAME, format_event, read_events, tail_events,
    )
    from .metrics import Counter, MetricsRegistry
    from .fleet import FleetRow, fleet_rows, render_top
    from .telemetry import SweepTelemetry

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".events": (
        "EVENT_CACHE_HIT", "EVENT_CACHE_MISS", "EVENT_CHECK_FINISHED",
        "EVENT_CHECK_PROGRESS", "EVENT_CHECK_STARTED",
        "EVENT_SHARD_FOLDED", "EVENT_SWEEP_FINISHED",
        "EVENT_SWEEP_STARTED", "EVENT_UNIT_CLAIMED",
        "EVENT_UNIT_COMPLETED", "EVENT_UNIT_RECLAIMED",
        "EVENT_UNIT_RELEASED", "EVENT_UNIT_RENEWED", "EventLedger",
        "LEDGER_NAME", "format_event", "read_events", "tail_events",
    ),
    ".metrics": ("Counter", "MetricsRegistry"),
    ".fleet": ("FleetRow", "fleet_rows", "render_top"),
    ".telemetry": ("SweepTelemetry",),
})
