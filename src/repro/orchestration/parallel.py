"""One execution path for scenario matrices, at any worker count.

:func:`sweep_parallel` is the sweep: normalise the scenarios to a spec
list, serve what an optional :class:`~repro.store.cache.ResultCache`
already holds (re-attached to the caller's matrix indices), run the
missing cells, aggregate.  ``SweepResult.cache_hits`` reports how much
work the store saved.  *Where* the missing cells run is a worker count,
not a backend: ``workers <= 1`` — which is all :func:`sweep_serial`
says — or fewer than :data:`INLINE_THRESHOLD` cells left (too few to
amortise one dispatch round-trip) drains
:func:`~repro.orchestration.matrix.execute` in this process; anything
else is dealt to the persistent
:class:`~repro.orchestration.pool.WorkerPool`, whose workers drain the
same ``execute``.  Workers are forked once per process (not per sweep)
and keep a warm :class:`~repro.orchestration.kernel.KernelContext` plus
the sweep's spec universe, so a chunk on the wire is just an index range
and results come back as pre-encoded JSONL batches (see
:mod:`repro.orchestration.pool` for the transport).  Because every run
is deterministic in its spec (the simulator draws all randomness from
the spec's derived seed), in-process and pooled execution of the same
matrix are bit-identical; ``tests/orchestration/test_parallel.py`` and
``tests/orchestration/test_pool.py`` lock this in.

Pooled dispatch is chunked: specs are dealt into batches so each IPC
round-trip amortises its overhead, while results stream back per *chunk*
to feed progress callbacks.  Chunk sizing is *adaptive* by default:
workers report each chunk's wall time, the parent keeps an exponential
moving average of the per-scenario cost, and subsequent chunks are sized
to take roughly :data:`TARGET_CHUNK_SECONDS` each — so a sweep of
millisecond cells ships big batches while a sweep of second-long cells
stays responsive.  Passing an explicit ``chunksize`` restores fixed-size
dispatch.  Chunking never affects results: outcomes are re-ordered by
matrix index before aggregation.

:func:`shard_slice` deterministically slices an expanded matrix into
``1/N .. N/N`` round-robin shards (``repro sweep --shard i/N``), the
building block for distributed dispatch: the N shards partition the
full sweep exactly, so merging their JSONL outputs
(:func:`repro.store.shards.merge_shards`) reproduces the single-machine
sweep.

Every sweep shares one aggregation
(:func:`repro.analysis.aggregation.aggregate_outcomes`) and one
persistence format (:meth:`SweepResult.write_jsonl`).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..analysis.aggregation import MatrixReport, aggregate_outcomes
from ..instrumentation import (
    PHASE_CACHE_KEY,
    PHASE_JSONL,
    PHASE_POOL,
    PHASE_REPORT,
)
from ..store.resume import plan_resume
from .kernel import default_context
from .matrix import (
    ScenarioMatrix,
    ScenarioOutcome,
    ScenarioSpec,
    as_specs,
    execute,
    outcome_from_record,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..profiling import SweepProfiler
    from ..store.cache import ResultCache
    from .pool import SpecTransport, WorkerPool

__all__ = [
    "SweepResult",
    "sweep_serial",
    "sweep_parallel",
    "shard_slice",
    "default_workers",
    "INLINE_THRESHOLD",
    "TARGET_CHUNK_SECONDS",
]

#: The per-outcome hook, ``on_result(outcome, cached)``: invoked once per
#: scenario in the main process, ``cached`` true when the result store
#: served it.
OnResult = Callable[[ScenarioOutcome, bool], None]

#: Adaptive dispatch aims each chunk at about this much worker wall time
#: — long enough to amortise pickling, short enough that progress
#: callbacks and work stealing stay responsive.
TARGET_CHUNK_SECONDS = 0.25

#: Chunk size used before any timing observation exists.
_PROBE_CHUNK = 4

#: Upper bound on an adaptive chunk (keeps one IPC payload bounded even
#: for microsecond-scale cells).
_MAX_CHUNK = 256

#: Sweeps with fewer scenarios left to execute than this run inline, in
#: the calling process: two probe chunks is the least work that can overlap
#: at all, and below it the dispatch round-trip is pure overhead.
INLINE_THRESHOLD = 2 * _PROBE_CHUNK


@dataclass
class SweepResult:
    """Outcomes plus aggregates for one executed scenario matrix."""

    #: Per-scenario outcomes, in matrix (expansion) order.
    outcomes: list[ScenarioOutcome]
    #: Global and per-cell aggregates.
    report: MatrixReport
    #: Worker processes used (1 = in-process).
    workers: int = 1
    #: Wall-clock seconds spent executing.
    elapsed: float = 0.0
    #: Scenarios served from the result cache instead of executed.
    cache_hits: int = 0
    #: Worker-pool spawn cost paid by *this* sweep (0.0 when the shared
    #: pool was already warm, or when the sweep ran in-process).
    pool_startup_seconds: float = 0.0
    #: Worker-encoded shard lines keyed by ``spec.index`` — pooled
    #: dispatch fills this so :meth:`write_jsonl` persists the workers'
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
        pool_startup: float = 0.0,
        encoded: dict[int, str] | None = None,
    ) -> "SweepResult":
        """Aggregate a finished outcome list into a result."""
        with default_context().phase(PHASE_REPORT):
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
        pool supplied them (cache hits and in-process outcomes are
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
    return as_specs(scenarios)[index - 1 :: count]


def _split_cached(
    specs: list[ScenarioSpec],
    cache: "ResultCache | None",
    check_invariants: bool,
) -> tuple[list[ScenarioOutcome], list[ScenarioSpec]]:
    """Partition specs into (cached outcomes, specs still to run).

    A ``check_invariants`` sweep never reads from the cache: its
    contract is that a safety violation *raises* during execution, and a
    violating outcome served from the store would silently bypass that.
    It still writes back — clean outcomes are identical either way.
    """
    if cache is None or check_invariants:
        return [], specs
    with default_context().phase(PHASE_CACHE_KEY):
        plan = plan_resume(specs, cache)
    return plan.cached, plan.missing


def sweep_serial(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    on_result: OnResult | None = None,
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
    profiler: "SweepProfiler | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> SweepResult:
    """:func:`sweep_parallel` at ``workers=1``: every scenario runs in
    this process, in matrix order."""
    return sweep_parallel(
        scenarios, workers=1, on_result=on_result,
        check_invariants=check_invariants, cache=cache, profiler=profiler,
        metrics=metrics,
    )


def sweep_parallel(
    scenarios: ScenarioMatrix | Iterable[ScenarioSpec],
    workers: int | None = None,
    chunksize: int | None = None,
    on_result: OnResult | None = None,
    check_invariants: bool = False,
    cache: "ResultCache | None" = None,
    profiler: "SweepProfiler | None" = None,
    metrics: "MetricsRegistry | None" = None,
    pool: "WorkerPool | None" = None,
    transport: "SpecTransport | None" = None,
) -> SweepResult:
    """Run a scenario matrix: cache hits first, then the missing cells.

    Args:
        scenarios: A matrix or an explicit spec list.
        workers: Process count; ``None`` uses :func:`default_workers`.
            ``workers <= 1``, or fewer than :data:`INLINE_THRESHOLD`
            scenarios left to execute, runs them in this process, in
            matrix order — same results, no pool round-trips, and
            ``SweepResult.workers == 1``.
        chunksize: Specs per dispatch unit.  ``None`` (default) sizes
            chunks adaptively from the observed per-scenario wall time,
            targeting ~:data:`TARGET_CHUNK_SECONDS` of work per chunk;
            an explicit value restores fixed-size dispatch.  Either way
            the returned outcomes are in matrix order.
        on_result: ``on_result(outcome, cached)``, called in this
            process once per scenario — cache hits first, in matrix
            order, with ``cached=True``, then fresh outcomes in
            completion order with ``cached=False`` (pooled chunks
            complete out of order; outcomes in the returned result are
            nevertheless in matrix order).  The one per-outcome hook:
            progress lines, telemetry and dispatch heartbeats all ride
            it.
        check_invariants: Propagated to every run; when true a safety
            violation raises (in a worker it re-raises here with its
            original exception type, worker traceback attached),
            aborting the sweep.
        cache: Optional result store; cached scenarios are not
            re-executed and fresh outcomes are written back — by
            whichever process ran them (pool workers keep persistent
            cache handles; writes are content-addressed and atomic, so
            concurrent workers are safe).  ``check_invariants`` sweeps
            bypass cache *reads* so violations always raise.
        profiler: Optional :class:`~repro.profiling.SweepProfiler`,
            installed as an instrument for the duration of this sweep
            (see ``metrics``) with its wall window open.  The phases of
            this process are timed directly and the per-run
            ``sim.step`` sink attributes simulator wall time per event
            label.  Summed worker time can exceed measured wall time
            (that is parallelism, not an accounting bug).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`,
            the sweep's second instrument.  The instruments are
            installed on the kernel context, armed on its bus per run,
            and each worker chunk runs under their empty twins (same
            configuration) whose exports are merged back in order — so
            the same tables and ``kernel.*`` totals come out at any
            worker count.  An unobserved sweep runs the exact same code
            with no instrument installed.
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
    started = time.perf_counter()
    instruments = [
        instrument for instrument in (profiler, metrics)
        if instrument is not None
    ]
    window = nullcontext() if profiler is None else profiler.measuring()
    with window, default_context().instrumented(instruments):
        specs = as_specs(scenarios)
        outcomes, missing = _split_cached(specs, cache, check_invariants)
        cache_hits = len(outcomes)
        if on_result is not None:
            for outcome in outcomes:
                on_result(outcome, True)
        pool_startup = 0.0
        encoded: dict[int, str] = {}
        if workers <= 1 or len(missing) < INLINE_THRESHOLD:
            # Nothing goes to the pool: the result says so, whatever
            # count was asked for.
            workers = 1
            fresh = execute(missing, check_invariants, cache)
        else:
            from .pool import SpecTransport

            if transport is None:
                transport = (
                    SpecTransport.from_matrix(scenarios)
                    if isinstance(scenarios, ScenarioMatrix)
                    else SpecTransport.from_specs(specs)
                )
            pool, pool_startup, owned = _acquire_pool(pool, workers)
            workers = pool.size
            fresh = _pooled(
                pool, owned, transport, missing, chunksize,
                check_invariants, cache, encoded,
            )
        try:
            for outcome in fresh:
                outcomes.append(outcome)
                if on_result is not None:
                    on_result(outcome, False)
        finally:
            # A raising callback must not leave the dispatch loop
            # suspended mid-sweep: closing it aborts what is in flight
            # and hands the pool back.
            fresh.close()
        return SweepResult.from_outcomes(
            outcomes,
            workers=workers,
            elapsed=time.perf_counter() - started,
            cache_hits=cache_hits,
            pool_startup=pool_startup,
            encoded=encoded,
        )


def _acquire_pool(
    pool: "WorkerPool | None", workers: int
) -> tuple["WorkerPool", float, bool]:
    """The pool to dispatch on, the spawn seconds this sweep paid for it
    and whether the sweep owns it (and must shut it down)."""
    from .pool import PoolWorkerError, get_pool

    startup, owned = 0.0, False
    if pool is None:
        pool, spawned = get_pool(workers)
        if spawned:
            startup = pool.startup_seconds
        owned = not pool.shared
    if pool.closed:
        raise PoolWorkerError("worker pool is shut down")
    return pool, startup, owned


def _pooled(
    pool: "WorkerPool",
    owned: bool,
    transport: "SpecTransport",
    missing: list[ScenarioSpec],
    chunksize: int | None,
    check_invariants: bool,
    cache: "ResultCache | None",
    encoded: dict[int, str],
) -> Iterator[ScenarioOutcome]:
    """The pooled dispatch loop: fresh outcomes in completion order.

    A generator, so the sweep body consumes pooled and in-process
    outcomes the same way.  The workers' pre-encoded record lines land
    in ``encoded`` (keyed by ``spec.index``).  Every chunk runs under
    twins of the installed instruments; their exports come back one per
    instrument, in order, and merge into the originals.  Closing the
    generator early aborts the chunks still in flight.
    """
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

    context = default_context()
    instruments = context.instruments
    options: dict[str, Any] = {
        "check_invariants": check_invariants,
        "instruments": [instrument.twin() for instrument in instruments],
    }
    if cache is not None:
        options["cache"] = (
            str(cache.root), cache.salt, cache.max_entries, cache.max_age
        )
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
                lines, spent, exports = payload
                with context.phase(PHASE_POOL):
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
                for instrument, export in zip(instruments, exports):
                    instrument.merge_remote(export)
                yield from chunk_outcomes
    except BaseException:
        pool.abort(inflight)
        raise
    finally:
        pool.active = False
        if owned:
            pool.shutdown()
