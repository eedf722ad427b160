"""Fleet telemetry for a sweep: one ledger, one registry, one outcome hook.

The sweep (:func:`repro.orchestration.parallel.sweep_parallel`) knows
nothing about ledgers: it reports every outcome through its one
``on_result(outcome, cached)`` callback and takes the registry as its
``metrics`` instrument.  :class:`SweepTelemetry` supplies both —
:meth:`SweepTelemetry.on_result` is the callback — and fans each call
out to the event ledger (:mod:`repro.obs.events`) and the metrics
registry (:mod:`repro.obs.metrics`), each of which is independently
optional.  Everything the sweep does not report per outcome is read
from the :class:`~repro.orchestration.parallel.SweepResult` it returns:
a pooled sweep's ``pool_started`` record is written when the sweep is
recorded as finished (:meth:`SweepTelemetry.sweep_finished`,
:meth:`SweepTelemetry.unit_completed`), just ahead of it.  The dispatch
worker loop (:func:`repro.orchestration.dispatch.run_claims`) records
the unit lifecycle here and folds this callback and the lease heartbeat
into the one callback it hands the sweep.

The dependency points *into* this package only: orchestration code
never imports :mod:`repro.obs` at run time.  The sweep installs the
registry as an instrument on the kernel context and a pool worker
counts into the pickled twin the parent shipped, so an unobserved
sweep — no callback, no registry — pays one pointer test per outcome
and constructs nothing.
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
    """Ledger + metrics behind one outcome hook.

    Args:
        ledger: Event sink; ``None`` records no history.
        metrics: Registry; ``None`` counts nothing.  Pass it to the
            sweep as ``metrics=`` so it is installed as an instrument on
            the kernel context and the ``net.send`` / ``net.deliver`` /
            ``sim.step`` sinks re-arm per run (see
            :meth:`MetricsRegistry.arm
            <repro.obs.metrics.MetricsRegistry.arm>`).

    Sweep-level metric names: ``sweep.scenarios`` (labelled
    ``source=cache|executed``), ``sweep.pool`` (pooled sweeps, labelled
    ``state=spawned|reused``) and ``sweep.units`` (labelled by final
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

    def on_result(self, outcome: "ScenarioOutcome", cached: bool) -> None:
        """The sweep's per-outcome hook: one scenario served from the
        result store (``cached``) or actually run (a store miss, or no
        store at all)."""
        self.scenarios += 1
        self.cache_hits += cached
        if self.metrics is not None:
            self.metrics.counter("sweep.scenarios").inc(
                source="cache" if cached else "executed"
            )
        if self.ledger is not None:
            spec = outcome.spec
            if cached:
                self.ledger.emit(
                    EVENT_CACHE_HIT, cell=spec.cell_id, seed=spec.seed_index,
                )
            else:
                self.ledger.emit(
                    EVENT_CACHE_MISS, cell=spec.cell_id,
                    seed=spec.seed_index, decided=outcome.decided,
                )

    def _pool_started(self, result: "SweepResult") -> None:
        """Record the worker pool a finished sweep ran on, if it ran on one.

        ``reused`` distinguishes a warm shared pool (startup already
        amortised by an earlier sweep) from a cold spawn whose cost this
        sweep paid; the ``sweep.pool`` counter is labelled accordingly,
        so a fleet run shows exactly one ``state=spawned`` increment per
        worker generation.
        """
        if result.workers <= 1:
            return
        reused = result.pool_startup_seconds == 0.0
        if self.metrics is not None:
            self.metrics.counter("sweep.pool").inc(
                state="reused" if reused else "spawned"
            )
        if self.ledger is not None:
            self.ledger.emit(
                EVENT_POOL_STARTED,
                workers=result.workers,
                startup_seconds=round(result.pool_startup_seconds, 6),
                reused=reused,
            )

    # -- sweep lifecycle (called by the CLI) -----------------------------

    def sweep_started(self, total: int, **fields: Any) -> None:
        if self.ledger is not None:
            self.ledger.emit(EVENT_SWEEP_STARTED, total=total, **fields)

    def sweep_finished(self, result: "SweepResult", **fields: Any) -> None:
        self._pool_started(result)
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

    def unit_completed(self, unit: "ShardUnit", result: "SweepResult") -> None:
        self._pool_started(result)
        if self.metrics is not None:
            self.metrics.counter("sweep.units").inc(state="done")
        if self.ledger is not None:
            payload: dict[str, Any] = dict(
                unit=unit.name, records=len(result.outcomes)
            )
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
