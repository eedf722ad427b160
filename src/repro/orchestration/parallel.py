"""Serial, cooperative-async and multi-process execution of scenario matrices.

:func:`sweep_parallel` fans a :class:`~repro.orchestration.matrix.ScenarioMatrix`
(or any list of :class:`~repro.orchestration.matrix.ScenarioSpec`) out
over the persistent :class:`~repro.orchestration.pool.WorkerPool`:
workers are forked once per process (not per sweep) and keep a warm
:class:`~repro.orchestration.kernel.KernelContext` plus the sweep's spec
universe, so a chunk on the wire is just an index range and results come
back as pre-encoded JSONL batches (see :mod:`repro.orchestration.pool`
for the transport).  Because every run is deterministic in its spec (the
simulator draws all randomness from the spec's derived seed), serial and
pooled execution of the same matrix are bit-identical;
``tests/orchestration/test_parallel.py`` and
``tests/orchestration/test_pool.py`` lock this in.

:func:`sweep_async` is the in-process cooperative backend for platforms
where process pools are expensive (single-CPU containers, notebooks,
services embedding the engine next to other event-loop work): a small
set of asyncio tasks drains the spec queue, yielding to the loop between
scenarios.  No processes are forked, and results are — again —
bit-identical to :func:`sweep_serial`.

All three backends accept an optional
:class:`~repro.store.cache.ResultCache`: specs already in the store are
served from it (and re-attached to the caller's matrix indices), only
the missing cells are executed, and fresh outcomes are written back.
``SweepResult.cache_hits`` reports how much work the store saved.

Dispatch in the pooled path is chunked: specs are dealt into batches so
each IPC round-trip amortises its overhead, while results stream back
per *chunk* to feed progress callbacks.  Chunk sizing is *adaptive* by
default: workers report each chunk's wall time, the parent keeps an
exponential moving average of the per-scenario cost, and subsequent
chunks are sized to take roughly :data:`TARGET_CHUNK_SECONDS` each — so
a sweep of millisecond cells ships big batches while a sweep of
second-long cells stays responsive.  Passing an explicit ``chunksize``
restores fixed-size dispatch.  Chunking never affects results: outcomes
are re-ordered by matrix index before aggregation.  Sweeps too small to
amortise even one dispatch round-trip (fewer than
:data:`INLINE_THRESHOLD` scenarios left to execute, or ``workers <= 1``)
run on the in-process serial path automatically — the pooled backend is
never slower than serial on work that cannot use it.

:func:`shard_slice` deterministically slices an expanded matrix into
``1/N .. N/N`` round-robin shards (``repro sweep --shard i/N``), the
building block for distributed dispatch: the N shards partition the
full sweep exactly, so merging their JSONL outputs
(:func:`repro.store.shards.merge_shards`) reproduces the single-machine
sweep.

All paths share one aggregation
(:func:`repro.analysis.aggregation.aggregate_outcomes`) and one
persistence format (:meth:`SweepResult.write_jsonl`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..analysis.aggregation import MatrixReport, aggregate_outcomes
from ..instrumentation import (
    PHASE_CACHE_KEY,
    PHASE_CACHE_PUT,
    PHASE_EXPAND,
    PHASE_JSONL,
    PHASE_POOL,
    PHASE_REPORT,
    PHASE_SIMULATE,
)
from .kernel import default_context
from .matrix import (
    ScenarioMatrix,
    ScenarioOutcome,
    ScenarioSpec,
    outcome_from_record,
    run_scenario,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..profiling import SweepProfiler
    from ..store.cache import ResultCache
    from .pool import SpecTransport, WorkerPool

__all__ = [
    "SweepResult",
    "sweep_serial",
    "sweep_async",
    "sweep_parallel",
    "shard_slice",
    "default_workers",
    "INLINE_THRESHOLD",
    "TARGET_CHUNK_SECONDS",
]

#: Progress callback: invoked once per finished scenario, main process.
OnResult = Callable[[ScenarioOutcome], None]

#: Adaptive dispatch aims each chunk at about this much worker wall time
#: — long enough to amortise pickling, short enough that progress
#: callbacks and work stealing stay responsive.
TARGET_CHUNK_SECONDS = 0.25

#: Chunk size used before any timing observation exists.
_PROBE_CHUNK = 4

#: Upper bound on an adaptive chunk (keeps one IPC payload bounded even
#: for microsecond-scale cells).
_MAX_CHUNK = 256

#: Sweeps with fewer scenarios left to execute than this run inline on
#: the serial path: two probe chunks is the least work that can overlap
#: at all, and below it the dispatch round-trip is pure overhead.
INLINE_THRESHOLD = 2 * _PROBE_CHUNK


class _NullPhase:
    """No-op timing scope for the unprofiled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_PHASE = _NullPhase()


def _phase(profiler: "SweepProfiler | None", name: str) -> Any:
    """``profiler.phase(name)``, or a shared no-op scope when unprofiled."""
    return _NULL_PHASE if profiler is None else profiler.phase(name)


class _ProfiledSweep:
    """Scope that activates sweep observers on the process-local context.

    While active, :func:`~repro.orchestration.matrix.run_scenario` times
    its build/simulate/report stages and
    :meth:`~repro.orchestration.kernel.KernelContext.fresh_bus` arms the
    ``sim.step`` sink per run.  An ``observer`` carrying a metrics
    registry (:class:`~repro.obs.telemetry.SweepTelemetry`) likewise has
    its kernel counting sinks re-armed per run.  With neither a profiler
    nor an observer the scope is a no-op, so every backend can wrap its
    body unconditionally.
    """

    __slots__ = ("_profiler", "_metrics", "_context")

    def __init__(
        self,
        profiler: "SweepProfiler | None",
        observer: Any | None = None,
    ) -> None:
        self._profiler = profiler
        self._metrics = (
            getattr(observer, "metrics", None)
            if observer is not None else None
        )
        self._context = None

    def __enter__(self) -> "SweepProfiler | None":
        if self._profiler is not None or self._metrics is not None:
            self._context = default_context()
            if self._profiler is not None:
                self._profiler.start()
                self._context.profiler = self._profiler
            if self._metrics is not None:
                self._context.metrics = self._metrics
        return self._profiler

    def __exit__(self, *exc: Any) -> None:
        if self._context is not None:
            if self._profiler is not None:
                self._context.profiler = None
                self._profiler.stop()
            if self._metrics is not None:
                self._context.metrics = None
            self._context = None


@dataclass
class SweepResult:
    """Outcomes plus aggregates for one executed scenario matrix."""

    #: Per-scenario outcomes, in matrix (expansion) order.
    outcomes: list[ScenarioOutcome]
    #: Global and per-cell aggregates.
    report: MatrixReport
    #: Worker processes used (1 = serial / async in-process).
    workers: int = 1
    #: Wall-clock seconds spent executing.
    elapsed: float = 0.0
    #: Scenarios served from the result cache instead of executed.
    cache_hits: int = 0
    #: Worker-pool spawn cost paid by *this* sweep (0.0 when the shared
    #: pool was already warm, or on the serial/async paths).
    pool_startup_seconds: float = 0.0
    #: Worker-encoded shard lines keyed by ``spec.index`` — the pooled
    #: backend fills this so :meth:`write_jsonl` persists the workers'
    #: bytes instead of re-encoding every record.
    _encoded: dict[int, str] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def executed(self) -> int:
        """Scenarios actually run (total minus cache hits)."""
        return len(self.outcomes) - self.cache_hits

    @property
    def scenarios_per_second(self) -> float:
        """Throughput over the whole sweep (0 when elapsed is unknown)."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Sequence[ScenarioOutcome],
        workers: int = 1,
        elapsed: float = 0.0,
        cache_hits: int = 0,
        profiler: "SweepProfiler | None" = None,
        pool_startup: float = 0.0,
        encoded: dict[int, str] | None = None,
    ) -> "SweepResult":
        """Aggregate a finished outcome list into a result."""
        with _phase(profiler, PHASE_REPORT):
            ordered = sorted(outcomes, key=lambda o: o.spec.index)
            report = aggregate_outcomes(ordered)
        return cls(
            outcomes=list(ordered),
            report=report,
            workers=workers,
            elapsed=elapsed,
            cache_hits=cache_hits,
            pool_startup_seconds=pool_startup,
            _encoded=encoded or None,
        )

    def _shard_lines(self) -> Iterable[str]:
        """Canonical shard lines, reusing worker-encoded bytes when the
        pooled backend supplied them (cache hits and serial outcomes are
        encoded here; either way the bytes are
        :func:`repro.store.shards.encode_record`'s)."""
        from ..store.shards import encode_record

        encoded = self._encoded
        if not encoded:
            return (encode_record(outcome) for outcome in self.outcomes)
        return (
            encoded.get(outcome.spec.index) or encode_record(outcome)
            for outcome in self.outcomes
        )

    def write_jsonl(
        self,
        path: str | os.PathLike[str],
        profiler: "SweepProfiler | None" = None,
    ) -> Path:
        """Persist one JSON record per scenario; returns the path.

        Parent directories are created, and the write is atomic (temp
        file + rename via :func:`repro.store.atomic.atomic_write_lines`),
        so an interrupted sweep can never leave a truncated shard behind.
        """
        from ..store.atomic import atomic_write_lines

        if profiler is None:
            return atomic_write_lines(path, self._shard_lines())
        # measuring() keeps the wall window open: this usually runs
        # *after* the sweep's own window closed, and the encode time must
        # land inside, not on top of, the measured total.
        with profiler.measuring(), profiler.phase(PHASE_JSONL):
            return atomic_write_lines(path, self._shard_lines())


def _as_specs(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    profiler: "SweepProfiler | None" = None,
) -> list[ScenarioSpec]:
    if isinstance(scenarios, ScenarioMatrix):
        with _phase(profiler, PHASE_EXPAND):
            return scenarios.expand()
    # Strictly increasing indices (a matrix expansion, or a shard_slice
    # of one) are kept: result ordering (which sorts on spec.index)
    # already reproduces the input order, and preserving the original
    # matrix positions keeps shard JSONLs mergeable bit-identically with
    # the unsharded sweep.  Hand-built / filtered lists with stale or
    # duplicate indices are re-indexed positionally instead.
    specs = list(scenarios)
    indices = [spec.index for spec in specs]
    if all(b > a for a, b in zip(indices, indices[1:])):
        return specs
    from dataclasses import replace

    return [
        spec if spec.index == i else replace(spec, index=i)
        for i, spec in enumerate(specs)
    ]


def default_workers() -> int:
    """Worker count matching the actually schedulable CPUs.

    The ``REPRO_SWEEP_WORKERS`` environment variable overrides (clamped
    to >= 1; non-integer values are ignored).  Otherwise the size of the
    process's CPU affinity set where the platform exposes one —
    container CPU limits shrink affinity, not ``cpu_count()`` — falling
    back to ``os.cpu_count()``.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def shard_slice(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    index: int,
    count: int,
) -> list[ScenarioSpec]:
    """The 1-based shard ``index/count`` of an expanded scenario list.

    Slicing is round-robin over the deterministic matrix expansion, so
    the ``count`` shards partition the full sweep exactly (every
    scenario lands in precisely one shard) and shard sizes differ by at
    most one.  Each machine of a distributed sweep runs
    ``shard_slice(matrix, i, N)`` and persists a JSONL shard;
    :func:`repro.store.shards.merge_shards` folds them back into the
    single-machine result.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ValueError(
            f"shard index must be in 1..{count}, got {index}"
        )
    return _as_specs(scenarios)[index - 1 :: count]


def _run_chunk(
    specs: list[ScenarioSpec], check_invariants: bool
) -> tuple[list[ScenarioOutcome], float]:
    """Worker-side entry point: execute one batch of specs.

    Returns the outcomes plus the chunk's wall time, which the parent
    feeds into adaptive chunk sizing.
    """
    started = _timer()
    outcomes = [
        run_scenario(spec, check_invariants=check_invariants) for spec in specs
    ]
    return outcomes, _timer() - started


def _timer() -> float:
    import time

    return time.perf_counter()


def _split_cached(
    specs: list[ScenarioSpec],
    cache: "ResultCache | None",
    check_invariants: bool,
    profiler: "SweepProfiler | None" = None,
) -> tuple[list[ScenarioOutcome], list[ScenarioSpec]]:
    """Partition specs into (cached outcomes, specs still to run).

    A ``check_invariants`` sweep never reads from the cache: its
    contract is that a safety violation *raises* during execution, and a
    violating outcome served from the store would silently bypass that.
    It still writes back — clean outcomes are identical either way.
    """
    if cache is None or check_invariants:
        return [], specs
    from ..store.resume import plan_resume

    with _phase(profiler, PHASE_CACHE_KEY):
        plan = plan_resume(specs, cache)
    return plan.cached, plan.missing


def _store(
    cache: "ResultCache | None",
    outcome: ScenarioOutcome,
    profiler: "SweepProfiler | None" = None,
) -> None:
    """Write one fresh outcome back to the store.

    Error outcomes are *not* cached: the error may be environmental
    (memory pressure, recursion limits), and persisting it would poison
    every future sweep of the cell.  Timeouts are cached — they are
    deterministic in the spec's budgets, which are part of the key.
    """
    if cache is not None and outcome.error is None:
        with _phase(profiler, PHASE_CACHE_PUT):
            cache.put(outcome)


def _emit(outcomes: Iterable[ScenarioOutcome], on_result: OnResult | None) -> None:
    if on_result is not None:
        for outcome in outcomes:
            on_result(outcome)


def _observe_hits(observer: Any | None, outcomes: Iterable[ScenarioOutcome]) -> None:
    """Report store-served outcomes to the telemetry observer."""
    if observer is not None:
        for outcome in outcomes:
            observer.cache_hit(outcome)


def _finish_serial(
    cached: list[ScenarioOutcome],
    missing: list[ScenarioSpec],
    on_result: OnResult | None,
    check_invariants: bool,
    cache: "ResultCache | None",
    workers: int,
    started: float,
    profiler: "SweepProfiler | None" = None,
    observer: Any | None = None,
) -> SweepResult:
    """Shared tail for the serial paths: run ``missing``, merge, aggregate."""
    outcomes = list(cached)
    _observe_hits(observer, cached)
    _emit(cached, on_result)
    for spec in missing:
        outcome = run_scenario(spec, check_invariants=check_invariants)
        _store(cache, outcome, profiler)
        outcomes.append(outcome)
        if observer is not None:
            observer.executed(outcome)
        _emit((outcome,), on_result)
    return SweepResult.from_outcomes(
        outcomes,
        workers=workers,
        elapsed=_timer() - started,
        cache_hits=len(cached),
        profiler=profiler,
    )


def sweep_serial(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    on_result: OnResult | None = None,
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
    profiler: "SweepProfiler | None" = None,
    observer: Any | None = None,
) -> SweepResult:
    """Run every scenario in this process, in matrix order.

    With a ``cache``, scenarios already in the store are served from it
    (``on_result`` still sees them, first, in matrix order) and fresh
    outcomes are written back.

    ``profiler`` (a :class:`~repro.profiling.SweepProfiler`) is active
    for the duration of this sweep: harness phases are timed here, and
    the per-run ``sim.step`` sink attributes simulator wall time per
    event label.

    ``observer`` (a :class:`~repro.obs.telemetry.SweepTelemetry`) sees
    every outcome as it lands — ``cache_hit`` for store-served cells,
    ``executed`` for fresh ones — and its metrics registry, if any, is
    armed on the kernel bus per run.  Both hooks are pointer-test-free
    when absent: an unobserved sweep runs the exact same code with
    ``observer is None``.
    """
    started = _timer()
    with _ProfiledSweep(profiler, observer):
        cached, missing = _split_cached(
            _as_specs(scenarios, profiler), cache, check_invariants, profiler
        )
        return _finish_serial(
            cached, missing, on_result, check_invariants, cache,
            workers=1, started=started, profiler=profiler,
            observer=observer,
        )


def sweep_async(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    concurrency: int | None = None,
    on_result: OnResult | None = None,
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
    profiler: "SweepProfiler | None" = None,
    observer: Any | None = None,
) -> SweepResult:
    """Run a scenario matrix on a cooperative in-process asyncio backend.

    ``concurrency`` tasks (default: up to 8) drain one shared spec queue
    inside a private event loop, yielding control between scenarios — no
    worker processes are forked, which is the right trade on platforms
    where pools are expensive (single-CPU containers, notebooks) or when
    the engine is embedded next to other event-loop work via
    ``on_result``.  Scenario execution itself is synchronous and
    deterministic, so results are bit-identical to :func:`sweep_serial`
    on the same matrix.

    Must be called from outside a running event loop (it owns its own,
    via ``asyncio.run``).
    """
    import asyncio
    from collections import deque

    started = _timer()
    with _ProfiledSweep(profiler, observer):
        cached, missing = _split_cached(
            _as_specs(scenarios, profiler), cache, check_invariants, profiler
        )
        if concurrency is None:
            concurrency = min(8, max(1, len(missing)))
        outcomes: list[ScenarioOutcome] = list(cached)
        _observe_hits(observer, cached)
        _emit(cached, on_result)
        queue: deque[ScenarioSpec] = deque(missing)

        async def worker() -> None:
            while queue:
                spec = queue.popleft()
                outcome = run_scenario(spec, check_invariants=check_invariants)
                _store(cache, outcome, profiler)
                outcomes.append(outcome)
                if observer is not None:
                    observer.executed(outcome)
                _emit((outcome,), on_result)
                await asyncio.sleep(0)

        async def drive() -> None:
            await asyncio.gather(
                *(worker() for _ in range(max(1, concurrency)))
            )

        asyncio.run(drive())
        return SweepResult.from_outcomes(
            outcomes,
            workers=1,
            elapsed=_timer() - started,
            cache_hits=len(cached),
            profiler=profiler,
        )


def sweep_parallel(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    workers: int | None = None,
    chunksize: int | None = None,
    on_result: OnResult | None = None,
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
    profiler: "SweepProfiler | None" = None,
    observer: Any | None = None,
    pool: "WorkerPool | None" = None,
    transport: "SpecTransport | None" = None,
) -> SweepResult:
    """Run a scenario matrix on the persistent worker pool.

    Args:
        scenarios: A matrix or an explicit spec list.
        workers: Pool size; ``None`` uses :func:`default_workers`.
            ``workers <= 1``, or fewer than :data:`INLINE_THRESHOLD`
            scenarios left to execute, dispatches inline on the serial
            path — same results, no pool round-trips.
        chunksize: Specs per dispatch unit.  ``None`` (default) sizes
            chunks adaptively from the observed per-scenario wall time,
            targeting ~:data:`TARGET_CHUNK_SECONDS` of work per chunk;
            an explicit value restores fixed-size dispatch.  Either way
            the returned outcomes are in matrix order.
        on_result: Called in the parent for every finished scenario —
            cache hits first, then fresh outcomes in completion order
            (chunks complete out of order; outcomes in the returned
            result are nevertheless in matrix order).
        check_invariants: Propagated to every run; when true a safety
            violation raises in the worker and re-raises here (original
            exception type, worker traceback attached), aborting the
            sweep.
        cache: Optional result store; cached scenarios are not
            re-executed.  Fresh outcomes are written back *worker-side*
            through the pool's persistent cache handles (content-
            addressed atomic writes, so concurrent workers are safe).
            ``check_invariants`` sweeps bypass cache *reads* so
            violations always raise.
        profiler: Optional :class:`~repro.profiling.SweepProfiler`.
            Parent-side phases (expand, cache keying, aggregation, pool
            dispatch) are timed directly; each worker chunk runs under a
            chunk-local profiler whose export is merged back, so the
            build/simulate/report split and the per-event ``sim.step``
            breakdown populate on the pooled path too.  Summed worker
            time can exceed measured wall time (that is parallelism,
            not an accounting bug).
        pool: An explicit :class:`~repro.orchestration.pool.WorkerPool`
            to run on (kept alive for the caller); ``None`` uses the
            process-global shared pool, spawning it on first use.
        transport: A prebuilt
            :class:`~repro.orchestration.pool.SpecTransport` whose
            universe covers every spec of this sweep —
            :func:`~repro.orchestration.dispatch.run_claims` passes its
            plan's matrix transport so consecutive units reuse the
            worker-side expansion instead of re-shipping specs.
    """
    if workers is None:
        workers = default_workers()
    started = _timer()
    with _ProfiledSweep(profiler, observer):
        specs = _as_specs(scenarios, profiler)
        cached, missing = _split_cached(
            specs, cache, check_invariants, profiler
        )
        if workers <= 1 or len(missing) < max(2, INLINE_THRESHOLD):
            return _finish_serial(
                cached, missing, on_result, check_invariants, cache,
                workers=max(1, workers), started=started, profiler=profiler,
                observer=observer,
            )
        return _sweep_pooled(
            scenarios, specs, cached, missing, workers, chunksize,
            on_result, check_invariants, cache, profiler, observer,
            pool, transport, started,
        )


def _sweep_pooled(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    specs: list[ScenarioSpec],
    cached: list[ScenarioOutcome],
    missing: list[ScenarioSpec],
    workers: int,
    chunksize: int | None,
    on_result: OnResult | None,
    check_invariants: bool,
    cache: "ResultCache | None",
    profiler: "SweepProfiler | None",
    observer: Any | None,
    pool: "WorkerPool | None",
    transport: "SpecTransport | None",
    started: float,
) -> SweepResult:
    """The pooled dispatch loop (callers did the cache split already)."""
    from .pool import PoolWorkerError, SpecTransport, get_pool

    owns_pool = False
    pool_startup = 0.0
    if pool is None:
        pool, spawned = get_pool(workers)
        if spawned:
            pool_startup = pool.startup_seconds
        owns_pool = not pool.shared
    if pool.closed:
        raise PoolWorkerError("worker pool is shut down")
    if observer is not None:
        notify = getattr(observer, "pool_started", None)
        if notify is not None:
            notify(
                workers=pool.size,
                startup_seconds=pool_startup,
                reused=pool_startup == 0.0,
            )
    if transport is None:
        if isinstance(scenarios, ScenarioMatrix):
            transport = SpecTransport.from_matrix(scenarios)
        else:
            transport = SpecTransport.from_specs(specs)
    adaptive = chunksize is None
    # Seconds-per-scenario EMA; None until the first chunk reports back.
    cost_ema: float | None = None

    def _next_size() -> int:
        if not adaptive:
            return max(1, int(chunksize))
        if cost_ema is None or cost_ema <= 0:
            return _PROBE_CHUNK
        return max(
            1, min(_MAX_CHUNK, int(TARGET_CHUNK_SECONDS / cost_ema))
        )

    options: dict[str, Any] = {"check_invariants": check_invariants}
    if cache is not None:
        options["cache"] = (
            str(cache.root), cache.salt, cache.max_entries, cache.max_age
        )
    if profiler is not None:
        options["profile"] = True
    outcomes: list[ScenarioOutcome] = list(cached)
    encoded: dict[int, str] = {}
    _observe_hits(observer, cached)
    _emit(cached, on_result)
    position = 0
    inflight: dict[int, list[ScenarioSpec]] = {}
    pool.active = True
    try:
        pool.quiesce()
        while inflight or position < len(missing):
            # Keep up to two chunks queued per worker so a finishing
            # worker never idles while the parent drains results.
            while position < len(missing) and pool.has_capacity():
                chunk = missing[position : position + _next_size()]
                position += len(chunk)
                job_id = pool.submit_chunk(
                    pool.least_loaded(), transport,
                    transport.positions_for(chunk), options,
                )
                inflight[job_id] = chunk
            for job_id, payload in pool.wait_any():
                chunk_specs = inflight.pop(job_id)
                lines, spent, profile_export = payload
                with _phase(profiler, PHASE_POOL):
                    chunk_outcomes = [
                        outcome_from_record(json.loads(line), spec=spec)
                        for line, spec in zip(lines, chunk_specs)
                    ]
                    for spec, line in zip(chunk_specs, lines):
                        encoded[spec.index] = line
                if adaptive and chunk_outcomes and spent > 0:
                    per_spec = spent / len(chunk_outcomes)
                    cost_ema = (
                        per_spec if cost_ema is None
                        else 0.5 * cost_ema + 0.5 * per_spec
                    )
                if profiler is not None and profile_export is not None:
                    profiler.merge_remote(profile_export)
                if observer is not None:
                    for outcome in chunk_outcomes:
                        observer.executed(outcome)
                outcomes.extend(chunk_outcomes)
                _emit(chunk_outcomes, on_result)
    except BaseException:
        pool.abort(inflight)
        raise
    finally:
        pool.active = False
        if owns_pool:
            pool.shutdown()
    return SweepResult.from_outcomes(
        outcomes,
        workers=pool.size,
        elapsed=_timer() - started,
        cache_hits=len(cached),
        profiler=profiler,
        pool_startup=pool_startup,
        encoded=encoded,
    )
