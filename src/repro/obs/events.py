"""Structured event ledger: an append-only JSONL record of a fleet run.

``repro dispatch status`` reads the *current* manifest — a snapshot that
says nothing about how the fleet got there.  The ledger is the missing
history: every worker appends typed events (unit claimed, lease renewed,
unit completed, cache hit, shard folded, ...) to one shared JSONL file,
each stamped with the run id, the worker id, wall-clock *and* monotonic
time.  Reading it back answers the questions a snapshot cannot: which
worker straggled, when a lease was reclaimed, how claim latency evolved
over the sweep.

**Write discipline.**  Appends cannot go through the store's
write-then-rename (:mod:`repro.store.atomic`) — a rename replaces the
whole file, and N workers hold the file open concurrently.  The ledger
uses the append-side analogue of that discipline: every
:meth:`EventLedger.emit` encodes the record to one newline-terminated
line and hands it to the kernel as a **single ``write(2)`` on an
``O_APPEND`` descriptor**.  POSIX serialises ``O_APPEND`` writes, so
concurrent workers interleave at line granularity — a reader sees whole
records in arrival order, never spliced halves.  The only torn state
possible is an unterminated final line from a mid-write crash, and
:func:`read_events` treats exactly that (and nothing else) as
in-progress, the same tolerance the shard collector extends to
truncated shards.

**Read side.**  :func:`read_events` streams records with optional
filters (``since`` / ``types`` / ``worker`` / ``run``);
:func:`tail_events` returns the last *n*.  The CLI faces are
``repro events tail`` and ``repro events query``; the Chrome-trace
exporter (:mod:`repro.obs.chrometrace`) turns a ledger slice into a
Perfetto-loadable timeline.  Schema and walkthrough:
``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "EVENT_CACHE_HIT",
    "EVENT_CACHE_MISS",
    "EVENT_CHECK_FINISHED",
    "EVENT_CHECK_PROGRESS",
    "EVENT_CHECK_STARTED",
    "EVENT_POOL_STARTED",
    "EVENT_SHARD_FOLDED",
    "EVENT_SWEEP_FINISHED",
    "EVENT_SWEEP_STARTED",
    "EVENT_UNIT_CLAIMED",
    "EVENT_UNIT_COMPLETED",
    "EVENT_UNIT_RECLAIMED",
    "EVENT_UNIT_RELEASED",
    "EVENT_UNIT_RENEWED",
    "EventLedger",
    "LEDGER_NAME",
    "LEDGER_VERSION",
    "format_event",
    "read_events",
    "tail_events",
]

#: Default ledger file name inside a dispatch directory.  A dotless name
#: would collide with the collector's ``*.jsonl`` shard scan if it lived
#: in ``shards/``; it lives next to ``manifest.json`` instead.
LEDGER_NAME = "events.jsonl"

#: Bump when the record envelope changes shape (readers skip newer
#: records loudly rather than mis-parsing them).
LEDGER_VERSION = 1

#: Typed events the platform emits.  The vocabulary is open — any string
#: is a legal ``type`` — but these names are what the CLI, the fleet
#: view and the trace exporter understand.
EVENT_SWEEP_STARTED = "sweep_started"
EVENT_POOL_STARTED = "pool_started"
EVENT_SWEEP_FINISHED = "sweep_finished"
EVENT_UNIT_CLAIMED = "unit_claimed"
EVENT_UNIT_RENEWED = "unit_renewed"
EVENT_UNIT_COMPLETED = "unit_completed"
EVENT_UNIT_RELEASED = "unit_released"
EVENT_UNIT_RECLAIMED = "unit_reclaimed"
EVENT_CACHE_HIT = "cache_hit"
EVENT_CACHE_MISS = "cache_miss"
EVENT_SHARD_FOLDED = "shard_folded"
EVENT_CHECK_STARTED = "check_started"
EVENT_CHECK_PROGRESS = "check_progress"
EVENT_CHECK_FINISHED = "check_finished"


class EventLedger:
    """One writer's handle on an append-only event file.

    Args:
        path: The JSONL file (parent directories are created).
        run_id: Stamped on every record; ties a fleet's workers to one
            dispatch plan (:attr:`DispatchPlan.run_id
            <repro.orchestration.dispatch.DispatchPlan>`).
        worker: This writer's identity (empty for single-process runs).
        clock / mono: Injectable time sources (tests pin them).

    The descriptor is opened lazily on first :meth:`emit` and kept open;
    use the context-manager form (or :meth:`close`) in long-lived
    processes.  Emitting after close reopens — a ledger is never left
    half-usable.
    """

    __slots__ = (
        "path", "run_id", "worker", "emitted", "_clock", "_mono", "_fd",
    )

    def __init__(
        self,
        path: str | os.PathLike[str],
        run_id: str = "",
        worker: str = "",
        clock: Callable[[], float] = time.time,
        mono: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.worker = worker
        #: Records this handle appended.
        self.emitted = 0
        self._clock = clock
        self._mono = mono
        self._fd: int | None = None

    def emit(self, type: str, **fields: Any) -> dict[str, Any]:
        """Append one typed event; returns the record as written.

        The envelope keys (``v``/``type``/``run``/``worker``/``ts``/
        ``mono``) are reserved: a ``fields`` entry shadowing one raises,
        because a record lying about its own identity poisons every
        downstream reader.
        """
        record: dict[str, Any] = {
            "v": LEDGER_VERSION,
            "type": type,
            "run": self.run_id,
            "worker": self.worker,
            "ts": self._clock(),
            "mono": self._mono(),
        }
        for key in fields:
            if key in record:
                raise ValueError(
                    f"event field {key!r} shadows a ledger envelope key"
                )
        record.update(fields)
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ) + "\n"
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
            )
        # One write(2) per record: O_APPEND serialises concurrent
        # writers at line granularity (see the module docstring).
        os.write(self._fd, line.encode("utf-8"))
        self.emitted += 1
        return record

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "EventLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventLedger({str(self.path)!r}, run_id={self.run_id!r}, "
            f"worker={self.worker!r})"
        )


def read_events(
    path: str | os.PathLike[str],
    since: float | None = None,
    types: Iterable[str] | None = None,
    worker: str | None = None,
    run: str | None = None,
) -> Iterator[dict[str, Any]]:
    """Stream ledger records, oldest first, with optional filters.

    * ``since`` — only records with wall ``ts >= since``;
    * ``types`` — only the named event types;
    * ``worker`` / ``run`` — only one writer / one dispatch run.

    A missing file yields nothing (a fleet that emitted no events has an
    empty history, not an error).  An unterminated final line is the
    in-progress append of a live writer and is skipped; a *terminated*
    line that fails to parse means real corruption and raises.  Records
    from a newer :data:`LEDGER_VERSION` raise too — mis-reading a future
    schema is worse than stopping.
    """
    wanted = None if types is None else frozenset(types)
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with fh:
        pending = ""
        while True:
            chunk = fh.read(1 << 16)
            if not chunk:
                break
            pending += chunk
            *lines, pending = pending.split("\n")
            yield from _parse_lines(lines, path, since, wanted, worker, run)
        # ``pending`` now holds whatever followed the last newline: empty
        # for a cleanly terminated file, a torn half-record otherwise —
        # skipped either way.


def _parse_lines(
    lines: Iterable[str],
    path: str | os.PathLike[str],
    since: float | None,
    wanted: frozenset[str] | None,
    worker: str | None,
    run: str | None,
) -> Iterator[dict[str, Any]]:
    for line in lines:
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(
                f"corrupt ledger line in {path}: {exc}"
            ) from None
        version = int(record.get("v", 0))
        if version > LEDGER_VERSION:
            raise ValueError(
                f"{path}: ledger version {version} is newer than this "
                f"code (reads <= {LEDGER_VERSION})"
            )
        if since is not None and record.get("ts", 0.0) < since:
            continue
        if wanted is not None and record.get("type") not in wanted:
            continue
        if worker is not None and record.get("worker") != worker:
            continue
        if run is not None and record.get("run") != run:
            continue
        yield record


def tail_events(
    path: str | os.PathLike[str],
    n: int = 10,
    **filters: Any,
) -> list[dict[str, Any]]:
    """The last ``n`` records (after filters), oldest first."""
    if n <= 0:
        return []
    from collections import deque

    return list(deque(read_events(path, **filters), maxlen=n))


def format_event(record: dict[str, Any]) -> str:
    """One human-readable line: time, type, worker, then the payload.

    Bulky values (embedded metrics snapshots) are elided to a summary —
    ``--json`` is the face for the full record.
    """
    ts = record.get("ts", 0.0)
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    envelope = {"v", "type", "run", "worker", "ts", "mono"}

    def render(value: Any) -> str:
        text = str(value)
        if len(text) > 48:
            kind = type(value).__name__
            size = len(value) if hasattr(value, "__len__") else "?"
            return f"<{kind}:{size}>"
        return text

    payload = " ".join(
        f"{key}={render(record[key])}" for key in sorted(record)
        if key not in envelope
    )
    worker = record.get("worker") or "-"
    return (
        f"{clock}  {record.get('type', '?'):<16} {worker:<20} {payload}"
    ).rstrip()
