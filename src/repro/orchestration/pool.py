"""Persistent worker pool: warm processes, batched spec transport.

``sweep_parallel`` used to pay for parallelism three times per sweep: a
fresh ``ProcessPoolExecutor`` (fork + interpreter warm-up per worker,
every sweep), pickled :class:`~repro.orchestration.matrix.ScenarioSpec`
lists per chunk (the spec is the *largest* object on the wire, and it
was shipped both directions), and a cold per-worker
:class:`~repro.orchestration.kernel.KernelContext` (topology and
adversary caches rebuilt from nothing each time).  On sweeps of
millisecond-scale scenarios the overhead swamped the simulator work —
the sweep benchmark of the time recorded parallel *slower* than serial.

:class:`WorkerPool` keeps the processes.  Workers are forked once and
live until :meth:`WorkerPool.shutdown` (or interpreter exit); each one
holds, for the pool's lifetime:

* a warm :class:`~repro.orchestration.kernel.KernelContext` — cached
  topologies/adversaries and the re-armed instrumentation bus survive
  across chunks, sweeps and dispatch units;
* a cache of **spec universes**: the scenario matrix codec
  (:meth:`ScenarioMatrix.to_dict`, which round-trips exact specs, seeds
  and indices) is shipped *once* per pool per matrix and expanded
  worker-side, so chunks are just index lists into it — no spec ever
  crosses the pipe again;
* open :class:`~repro.store.cache.ResultCache` handles, so fresh
  outcomes are written back worker-side (content-addressed atomic
  writes; concurrent writers are safe) without re-serialising in the
  parent.

Results return as **pre-encoded JSONL record batches**: each worker
encodes ``json.dumps(outcome.to_record(), sort_keys=True)`` — byte-for-
byte the :func:`repro.store.shards.write_shard` line format — and the
parent reattaches its own live specs via
:func:`~repro.orchestration.matrix.outcome_from_record`, so persisting
the sweep re-uses the worker's bytes instead of re-encoding.

Transport is one duplex :func:`multiprocessing.Pipe` per worker.  The
parent only ever sends small messages (a chunk is an index range; the
matrix payload is shipped only to a quiesced worker), so the classic
pipe deadlock — both sides blocked writing — cannot arise: a worker
blocked sending a large result batch is always drained by the parent's
``connection.wait`` loop.

Observability rides along: chunk replies carry worker wall time (feeds
the parent's adaptive chunk sizing) and one export per instrument.  The
parent ships each chunk the empty twins of its installed instruments
(:attr:`KernelContext.instruments
<repro.orchestration.kernel.KernelContext.instruments>` — a
:class:`~repro.profiling.SweepProfiler` keeps its ``sim_steps`` and
``alloc`` configuration); the worker runs the chunk with the twins
installed and replies with their exports in the same order, which the
parent folds into the originals by ``merge_remote`` — so ``repro
profile`` attributes build/simulate/report time and allocations, and an
observed sweep's ``kernel.*`` counters add up, at any worker count.
The pool itself imports neither :mod:`repro.profiling` nor
:mod:`repro.obs`: the twins arrive pickled.  :meth:`WorkerPool.stats`
round-trips each worker's :meth:`KernelContext.stats
<repro.orchestration.kernel.KernelContext.stats>` — the warm-hit
counters that prove reuse across ``run_claims`` units.

The process-global pool (:func:`get_pool`) is what a pooled sweep
uses; it respawns automatically when the requested size changes or when
the axis registry gained/lost axes since the fork (workers inherited the
registry at fork time, so a stale pool would decode manifests under a
different vocabulary).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import multiprocessing
import time
import traceback
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..instrumentation import PHASE_JSONL
from ..store.cache import ResultCache
from ..store.shards import encode_record
from .axes import AXES
from .kernel import default_context
from .matrix import ScenarioMatrix, ScenarioSpec, execute

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

__all__ = [
    "PoolWorkerError",
    "SpecTransport",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
]

#: Spec universes kept per worker (a dispatch fleet works one matrix at
#: a time; a handful covers interleaved sweeps without unbounded growth).
_UNIVERSE_CACHE = 4

#: Chunks in flight per worker (two keeps a finishing worker busy while
#: the parent drains the other's results — same policy the old executor
#: path used).
MAX_INFLIGHT = 2


class PoolWorkerError(RuntimeError):
    """A worker process failed outside scenario execution (protocol
    violation, worker death).  Scenario-level errors re-raise as their
    original exception type."""


def _digest(payload: Any) -> str:
    """Stable id for a shipped payload (matrix dict or spec dict list)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


class SpecTransport:
    """A once-shipped spec universe plus the index mapping into it.

    The parent builds one transport per sweep (or one per dispatch
    *plan* — :func:`repro.orchestration.dispatch.run_claims` reuses a
    matrix transport across every unit it claims) and resolves each
    spec to its position in the worker-side expansion; the pool ships
    the payload to each worker at most once per universe id.
    """

    __slots__ = ("uid", "kind", "payload", "_position_by_index")

    def __init__(
        self, uid: str, kind: str, payload: Any,
        position_by_index: dict[int, int] | None,
    ) -> None:
        self.uid = uid
        self.kind = kind  # "matrix" | "specs"
        self.payload = payload
        # None means positions == spec.index (a matrix expansion, whose
        # specs are indexed by construction position).
        self._position_by_index = position_by_index

    @classmethod
    def from_matrix(cls, matrix: ScenarioMatrix) -> "SpecTransport":
        payload = matrix.to_dict()
        return cls(_digest(payload), "matrix", payload, None)

    @classmethod
    def from_specs(cls, specs: Sequence[ScenarioSpec]) -> "SpecTransport":
        payload = [spec.to_dict() for spec in specs]
        positions = {spec.index: i for i, spec in enumerate(specs)}
        if len(positions) != len(specs):
            raise ValueError("spec list has duplicate indices")
        return cls(_digest(payload), "specs", payload, positions)

    def positions_for(self, specs: Iterable[ScenarioSpec]) -> list[int]:
        """Worker-side expansion positions of ``specs``."""
        if self._position_by_index is None:
            return [spec.index for spec in specs]
        by_index = self._position_by_index
        return [by_index[spec.index] for spec in specs]


def _compact(positions: list[int]) -> Any:
    """Wire form of a position list: contiguous runs ship as a range."""
    if positions and positions == list(
        range(positions[0], positions[0] + len(positions))
    ):
        return ("r", positions[0], positions[0] + len(positions))
    return ("l", positions)


def _expand_positions(wire: Any) -> list[int]:
    if wire[0] == "r":
        return list(range(wire[1], wire[2]))
    return list(wire[1])


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(conn: "Connection", worker_index: int) -> None:
    """The worker process loop: decode requests, run chunks, reply.

    All long-lived warm state lives in function locals and the process-
    local :func:`default_context` — nothing is re-created per chunk.
    """
    from collections import OrderedDict

    context = default_context()
    # A forked child inherits whatever the parent's context held —
    # installed instruments, warm caches, run counters.  Start clean:
    # worker-side instruments arrive per chunk, and the stats()
    # round-trip must account for *this worker's* work only.
    context.clear()
    universes: "OrderedDict[str, Any]" = OrderedDict()
    caches: dict[tuple[Any, ...], "ResultCache"] = {}

    def universe(uid: str) -> list[ScenarioSpec]:
        entry = universes[uid]
        universes.move_to_end(uid)
        if isinstance(entry, Exception):
            raise entry
        return entry

    def open_cache(spec: tuple[Any, ...]) -> "ResultCache":
        handle = caches.get(spec)
        if handle is None:
            root, salt, max_entries, max_age = spec
            handle = caches[spec] = ResultCache(
                root, salt=salt, max_entries=max_entries, max_age=max_age
            )
        return handle

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        if kind in ("matrix", "specs"):
            uid, payload = message[1], message[2]
            try:
                if kind == "matrix":
                    expansion = ScenarioMatrix.from_dict(payload).expand()
                else:
                    expansion = [ScenarioSpec.from_dict(d) for d in payload]
                universes[uid] = expansion
            except Exception as exc:  # surfaces at the next chunk
                universes[uid] = exc
            while len(universes) > _UNIVERSE_CACHE:
                universes.popitem(last=False)
            continue
        job_id = message[1]
        try:
            if kind == "chunk":
                _uid, wire, options = message[2], message[3], message[4]
                reply = _run_pooled_chunk(
                    universe(_uid), _expand_positions(wire), options,
                    context, open_cache,
                )
            elif kind == "stats":
                reply = dict(
                    context.stats(),
                    worker=worker_index,
                    universes=len(universes),
                    caches=len(caches),
                )
            elif kind == "ping":
                reply = "pong"
            else:
                raise PoolWorkerError(f"unknown pool message {kind!r}")
        except BaseException as exc:
            conn.send(("err", job_id, _portable(exc), traceback.format_exc()))
            continue
        conn.send(("ok", job_id, reply))


def _portable(exc: BaseException) -> Any:
    """The exception itself when picklable, else a stand-in string."""
    import pickle

    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _run_pooled_chunk(
    specs: list[ScenarioSpec],
    positions: list[int],
    options: dict[str, Any],
    context: Any,
    open_cache: Any,
) -> tuple[list[str], float, list[Any]]:
    """Execute one chunk; returns (encoded lines, wall seconds, exports).

    The encoded lines are byte-identical to
    :func:`repro.store.shards.write_shard` output for the same outcomes,
    which is what lets the parent persist them without re-encoding.
    The chunk runs with the parent's instrument twins
    (``options["instruments"]``) installed; ``exports`` holds one
    ``export()`` per twin, in order.
    """
    cache_spec = options.get("cache")
    cache = None if cache_spec is None else open_cache(cache_spec)
    twins = options.get("instruments", ())
    started = time.perf_counter()
    with context.instrumented(twins):
        outcomes = list(execute(
            [specs[position] for position in positions],
            options.get("check_invariants", False), cache,
        ))
        wall = time.perf_counter() - started
        with context.phase(PHASE_JSONL):
            lines = [encode_record(outcome) for outcome in outcomes]
    return lines, wall, [twin.export() for twin in twins]


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle for one pooled process."""

    __slots__ = ("process", "conn", "index", "shipped", "outstanding")

    def __init__(self, process: Any, conn: "Connection", index: int) -> None:
        self.process = process
        self.conn = conn
        self.index = index
        #: Universe ids this worker already holds.
        self.shipped: set[str] = set()
        #: Job ids sent and not yet answered, in send order.
        self.outstanding: list[int] = []


class WorkerPool:
    """A fixed-size set of persistent scenario workers.

    Spawned once (``fork`` where available, so workers inherit the axis
    registry and loaded modules without re-importing), reused across
    sweeps and dispatch units, shut down explicitly or at interpreter
    exit.  Not thread-safe: one sweep drives the pool at a time
    (:attr:`active` guards against re-entrant use).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        # Workers fork with whatever this process has loaded: import what
        # they execute first, so it is paid once and not once per worker.
        from . import runner  # noqa: F401

        started = time.perf_counter()
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, index),
                daemon=True,
                name=f"repro-pool-{index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(process, parent_conn, index))
        #: Wall seconds spent forking the workers (bench attribution).
        self.startup_seconds = time.perf_counter() - started
        self._next_job = 0
        self._results: dict[int, Any] = {}
        self._discard: set[int] = set()
        #: True once unusable — explicitly shut down, or a worker died.
        self.closed = False
        self._torn_down = False
        #: True while a sweep is driving this pool.
        self.active = False
        #: True for the process-global pool (:func:`get_pool`); sweeps
        #: shut down pools they privately spawned, never the shared one.
        self.shared = False

    @property
    def size(self) -> int:
        return len(self._workers)

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker (idempotent)."""
        if self._torn_down:
            return
        self._torn_down = True
        self.closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()

    def quiesce(self) -> None:
        """Drain every outstanding reply (discarding aborted jobs), so a
        new sweep starts against idle workers and large payload sends
        can never interleave with a blocked result send."""
        for worker in self._workers:
            while worker.outstanding:
                self._recv(worker)

    # -- the wire --------------------------------------------------------

    def _recv(self, worker: _Worker) -> None:
        """Receive exactly one reply from ``worker`` into the result map."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self.closed = True
            raise PoolWorkerError(
                f"pool worker {worker.index} died "
                f"(exitcode={worker.process.exitcode})"
            ) from exc
        job_id = reply[1]
        if job_id in worker.outstanding:
            worker.outstanding.remove(job_id)
        if job_id in self._discard:
            self._discard.remove(job_id)
            return
        self._results[job_id] = reply

    def _send(self, worker: _Worker, message: tuple) -> None:
        """Send one request; a dead worker raises :class:`PoolWorkerError`
        instead of a bare ``BrokenPipeError``."""
        try:
            worker.conn.send(message)
        except (OSError, ValueError) as exc:
            self.closed = True
            raise PoolWorkerError(
                f"pool worker {worker.index} died "
                f"(exitcode={worker.process.exitcode})"
            ) from exc

    def _ship(self, worker: _Worker, transport: SpecTransport) -> None:
        if transport.uid not in worker.shipped:
            self._send(
                worker, (transport.kind, transport.uid, transport.payload)
            )
            worker.shipped.add(transport.uid)

    def submit_chunk(
        self,
        worker_index: int,
        transport: SpecTransport,
        positions: list[int],
        options: dict[str, Any],
    ) -> int:
        """Queue one chunk on a specific worker; returns the job id."""
        worker = self._workers[worker_index]
        self._ship(worker, transport)
        job_id = self._next_job
        self._next_job += 1
        self._send(
            worker,
            ("chunk", job_id, transport.uid, _compact(positions), options),
        )
        worker.outstanding.append(job_id)
        return job_id

    def wait_any(self) -> list[tuple[int, Any]]:
        """Block until >= 1 reply arrives; returns ``(job_id, payload)``
        pairs (scenario errors re-raise here as their original type,
        with the worker traceback attached as a note)."""
        from multiprocessing.connection import wait as connection_wait

        busy = [w for w in self._workers if w.outstanding]
        if not busy and not self._results:
            raise PoolWorkerError("wait_any() with no outstanding work")
        if not self._results:
            ready = connection_wait([w.conn for w in busy])
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                self._recv(by_conn[conn])
        done: list[tuple[int, Any]] = []
        for job_id in sorted(self._results):
            reply = self._results.pop(job_id)
            if reply[0] == "err":
                self._raise_worker_error(reply)
            done.append((job_id, reply[2]))
        return done

    def _raise_worker_error(self, reply: Any) -> None:
        exc, worker_tb = reply[2], reply[3]
        if isinstance(exc, BaseException):
            if hasattr(exc, "add_note"):
                exc.add_note(f"(in pool worker)\n{worker_tb}")
            raise exc
        raise PoolWorkerError(f"{exc}\n(worker traceback)\n{worker_tb}")

    def abort(self, job_ids: Iterable[int]) -> None:
        """Forget submitted jobs (their late replies will be dropped)."""
        pending = set(job_ids)
        for worker in self._workers:
            for job_id in worker.outstanding:
                if job_id in pending:
                    self._discard.add(job_id)
        self._results = {
            job_id: reply
            for job_id, reply in self._results.items()
            if job_id not in pending
        }

    def least_loaded(self) -> int:
        """Index of the worker with the fewest queued chunks."""
        return min(
            range(len(self._workers)),
            key=lambda i: len(self._workers[i].outstanding),
        )

    def inflight(self) -> int:
        return sum(len(w.outstanding) for w in self._workers)

    def has_capacity(self) -> bool:
        return any(
            len(w.outstanding) < MAX_INFLIGHT for w in self._workers
        )

    # -- introspection ---------------------------------------------------

    def _roundtrip(self, kind: str) -> list[Any]:
        self.quiesce()
        payloads = []
        for worker in self._workers:
            job_id = self._next_job
            self._next_job += 1
            self._send(worker, (kind, job_id))
            worker.outstanding.append(job_id)
            self._recv(worker)
            reply = self._results.pop(job_id)
            if reply[0] == "err":
                self._raise_worker_error(reply)
            payloads.append(reply[2])
        return payloads

    def stats(self) -> list[dict[str, Any]]:
        """Each worker's :meth:`KernelContext.stats` (plus universe and
        cache-handle counts) — the warm-reuse evidence."""
        return self._roundtrip("stats")

    def ping(self) -> bool:
        """All workers answer."""
        return all(p == "pong" for p in self._roundtrip("ping"))

    def __repr__(self) -> str:
        return (
            f"WorkerPool(size={self.size}, inflight={self.inflight()}, "
            f"closed={self.closed})"
        )


# ---------------------------------------------------------------------------
# the shared process-global pool
# ---------------------------------------------------------------------------

_SHARED: WorkerPool | None = None
_SHARED_AXES: tuple[str, ...] | None = None
_ATEXIT_REGISTERED = False


def _axes_fingerprint() -> tuple[str, ...]:
    return AXES.names()


def get_pool(workers: int) -> tuple[WorkerPool, bool]:
    """The shared pool at ``workers`` size; returns ``(pool, spawned)``.

    Reuses the live pool when the size matches and the axis registry is
    unchanged since the fork; otherwise the stale pool is shut down and
    a fresh one spawned (``spawned=True`` — its ``startup_seconds`` was
    paid by this call).
    """
    global _SHARED, _SHARED_AXES, _ATEXIT_REGISTERED
    fingerprint = _axes_fingerprint()
    pool = _SHARED
    if pool is not None and pool.active:
        # A sweep is already driving the shared pool (re-entrant use,
        # e.g. a sweep launched from an on_result callback): hand out a
        # private pool the caller will shut down itself.
        return WorkerPool(workers), True
    if (
        pool is not None
        and not pool.closed
        and pool.size == workers
        and _SHARED_AXES == fingerprint
    ):
        return pool, False
    if pool is not None:
        pool.shutdown()
    _SHARED = WorkerPool(workers)
    _SHARED.shared = True
    _SHARED_AXES = fingerprint
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pool)
        _ATEXIT_REGISTERED = True
    return _SHARED, True


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; interpreter exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None
