"""The observer object that threads fleet telemetry through a sweep.

The sweep (:func:`repro.orchestration.parallel.sweep_parallel`) and the
dispatch worker loop (:func:`repro.orchestration.dispatch.run_claims`)
know nothing about ledgers or metric registries — they accept one
optional *observer* and call a handful of duck-typed hooks on it.
:class:`SweepTelemetry` is the concrete observer: it fans each hook out
to the event ledger (:mod:`repro.obs.events`) and the metrics registry
(:mod:`repro.obs.metrics`), each of which is independently optional.
(Dispatch heartbeats do not come through here: they ride the sweep's
``on_result`` callback.)

The dependency points *into* this package only: orchestration code
never imports :mod:`repro.obs` at run time.  The sweep installs the
registry as an instrument on the kernel context and a pool worker
counts into the pickled twin the parent shipped, so an unobserved
sweep — ``observer is None`` everywhere — pays one pointer test per
hook site and constructs nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .events import (
    EVENT_CACHE_HIT,
    EVENT_CACHE_MISS,
    EVENT_POOL_STARTED,
    EVENT_SWEEP_FINISHED,
    EVENT_SWEEP_STARTED,
    EVENT_UNIT_CLAIMED,
    EVENT_UNIT_COMPLETED,
    EVENT_UNIT_RELEASED,
    EVENT_UNIT_RENEWED,
    EventLedger,
)
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.dispatch import ShardUnit
    from ..orchestration.matrix import ScenarioOutcome
    from ..orchestration.parallel import SweepResult

__all__ = ["SweepTelemetry"]


class SweepTelemetry:
    """Ledger + metrics behind one observer face.

    Args:
        ledger: Event sink; ``None`` records no history.
        metrics: Registry; ``None`` counts nothing.  When present, the
            sweep installs it as an instrument on the kernel context so
            the ``net.send`` / ``net.deliver`` / ``sim.step`` sinks
            re-arm per run (see :meth:`MetricsRegistry.arm
            <repro.obs.metrics.MetricsRegistry.arm>`).

    Sweep-level metric names: ``sweep.scenarios`` (labelled
    ``source=cache|executed``) and ``sweep.units`` (labelled by final
    state).
    """

    __slots__ = ("ledger", "metrics", "scenarios", "cache_hits")

    def __init__(
        self,
        ledger: EventLedger | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.ledger = ledger
        self.metrics = metrics
        #: Outcomes seen so far (cache hits + executed).
        self.scenarios = 0
        #: Outcomes served from the result store.
        self.cache_hits = 0

    # -- per-scenario hooks (called by the sweep) -------------------------

    def cache_hit(self, outcome: "ScenarioOutcome") -> None:
        """One scenario served from the result store."""
        self.scenarios += 1
        self.cache_hits += 1
        if self.metrics is not None:
            self.metrics.counter("sweep.scenarios").inc(source="cache")
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_CACHE_HIT,
                cell=outcome.spec.cell_id,
                seed=outcome.spec.seed_index,
            )

    def executed(self, outcome: "ScenarioOutcome") -> None:
        """One scenario actually run (a store miss, or no store at all)."""
        self.scenarios += 1
        if self.metrics is not None:
            self.metrics.counter("sweep.scenarios").inc(source="executed")
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_CACHE_MISS,
                cell=outcome.spec.cell_id,
                seed=outcome.spec.seed_index,
                decided=outcome.decided,
            )

    def pool_started(
        self, workers: int, startup_seconds: float, reused: bool
    ) -> None:
        """A pooled sweep acquired its worker pool.

        ``reused`` distinguishes a warm shared pool (startup already
        amortised by an earlier sweep) from a cold spawn whose cost this
        sweep paid; the ``sweep.pool`` counter is labelled accordingly,
        so a fleet run shows exactly one ``state=spawned`` increment per
        worker generation.
        """
        if self.metrics is not None:
            self.metrics.counter("sweep.pool").inc(
                state="reused" if reused else "spawned"
            )
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_POOL_STARTED,
                workers=workers,
                startup_seconds=round(startup_seconds, 6),
                reused=reused,
            )

    # -- sweep lifecycle (called by the CLI / worker loop) ---------------

    def sweep_started(self, total: int, **fields: Any) -> None:
        if self.ledger is not None:
            self.ledger.emit(EVENT_SWEEP_STARTED, total=total, **fields)

    def sweep_finished(self, result: "SweepResult", **fields: Any) -> None:
        if self.ledger is not None:
            payload: dict[str, Any] = dict(
                scenarios=len(result.outcomes),
                cache_hits=result.cache_hits,
                elapsed=round(result.elapsed, 6),
                decided=result.report.decided_runs,
                safe=result.report.all_safe,
                **fields,
            )
            if self.metrics is not None:
                payload["metrics"] = self.metrics.snapshot()
            self.ledger.emit(EVENT_SWEEP_FINISHED, **payload)

    # -- dispatch-unit lifecycle (called by run_claims) ------------------

    def unit_claimed(self, unit: "ShardUnit") -> None:
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_UNIT_CLAIMED, unit=unit.name,
                scenarios=unit.scenarios, attempt=unit.attempts,
            )

    def unit_renewed(self, unit: "ShardUnit", done: int, renewed: bool) -> None:
        if self.metrics is not None:
            self.metrics.counter("dispatch.heartbeats").inc()
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_UNIT_RENEWED, unit=unit.name, done=done,
                total=unit.scenarios, renewed=renewed,
            )

    def unit_completed(self, unit: "ShardUnit", records: int) -> None:
        if self.metrics is not None:
            self.metrics.counter("sweep.units").inc(state="done")
        if self.ledger is not None:
            payload: dict[str, Any] = dict(unit=unit.name, records=records)
            if self.metrics is not None:
                payload["metrics"] = self.metrics.snapshot()
            self.ledger.emit(EVENT_UNIT_COMPLETED, **payload)

    def unit_released(self, unit: "ShardUnit", error: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("sweep.units").inc(state="released")
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_UNIT_RELEASED, unit=unit.name, error=error,
            )
