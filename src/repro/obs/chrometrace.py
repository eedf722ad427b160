"""Export kernel traces, profiles and fleet ledgers as Chrome traces.

The Trace Event Format (the JSON consumed by Perfetto and
``chrome://tracing``) is the lingua franca for "what happened when"
timelines.  This module converts each of the platform's three capture
shapes into it:

* :func:`trace_from_tracer` — a kernel :class:`~repro.analysis.traces.Tracer`
  capture of one run: each simulated process becomes a track, sends and
  deliveries become instants joined by flow arrows (follow one message
  across the network), RB-deliveries and decisions become markers.
  Virtual time maps to trace time at **1 virtual unit = 1 ms**;
* :func:`trace_from_profile` — a ``repro profile --out`` JSON body
  (:meth:`SweepProfiler.to_dict <repro.profiling.SweepProfiler.to_dict>`):
  aggregate phases laid end-to-end as duration slices, one track for the
  harness phases and one for the per-event sim labels;
* :func:`trace_from_ledger` — a fleet event-ledger slice
  (:mod:`repro.obs.events`): one track per worker, claim-to-completion
  spans per unit, heartbeats / cache events / shard folds as instants.
  Wall-clock time is rebased to the slice's first event.

:func:`validate_trace` is the structural checker the CI obs-smoke job
and the tests share; ``python -m repro.obs.chrometrace FILE`` runs it
from the command line.  The CLI face is ``repro trace`` — see
``docs/observability.md`` for a load-it-in-Perfetto walkthrough.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..store.atomic import atomic_write_text

__all__ = [
    "trace_from_ledger",
    "trace_from_profile",
    "trace_from_tracer",
    "validate_trace",
    "write_trace",
]

#: Event phases this exporter emits (a subset of the format).
_PHASES = frozenset("BEXiMsf")

#: One virtual time unit rendered as this many trace microseconds.
VIRTUAL_UNIT_US = 1000.0


def _jsonable(detail: Mapping[str, Any]) -> dict[str, Any]:
    """Coerce non-primitive detail values (e.g. the ``Bot`` sentinel) to
    strings, mirroring :meth:`TraceEvent.to_json_obj
    <repro.analysis.traces.TraceEvent.to_json_obj>`."""
    return {
        key: value
        if isinstance(value, (str, int, float, bool, type(None)))
        else str(value)
        for key, value in detail.items()
    }


def _thread_name(pid: int, tid: int, name: str) -> dict[str, Any]:
    return {
        "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def _process_name(pid: int, name: str) -> dict[str, Any]:
    return {
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": name},
    }


def trace_from_tracer(
    events: Iterable[Any], label: str = "repro run"
) -> dict[str, Any]:
    """Convert kernel :class:`~repro.analysis.traces.TraceEvent` records.

    Accepts a :class:`~repro.analysis.traces.Tracer` itself, its
    ``events`` list, or any iterable of objects with ``time`` / ``kind``
    / ``pid`` / ``detail``.  Message flows are linked send→deliver
    through the message ``uid``.
    """
    events = getattr(events, "events", events)
    out: list[dict[str, Any]] = [_process_name(1, label)]
    tids: set[int] = set()
    for event in events:
        ts = float(event.time) * VIRTUAL_UNIT_US
        detail = _jsonable(event.detail)
        pid = event.pid if event.pid is not None else 0
        tids.add(pid)
        base = {"pid": 1, "tid": pid, "ts": ts, "cat": event.kind}
        tag = detail.get("tag")
        uid = detail.get("uid")
        if event.kind == "send":
            name = f"send {tag}" if tag else "send"
            out.append({**base, "name": name, "ph": "i", "s": "t",
                        "args": detail})
            if uid is not None:
                out.append({**base, "name": str(tag or "message"),
                            "ph": "s", "id": int(uid)})
        elif event.kind == "deliver":
            name = f"deliver {tag}" if tag else "deliver"
            out.append({**base, "name": name, "ph": "i", "s": "t",
                        "args": detail})
            if uid is not None:
                out.append({**base, "name": str(tag or "message"),
                            "ph": "f", "bp": "e", "id": int(uid)})
        else:
            # rb_deliver, decide, protocol-chosen labels: plain markers.
            out.append({**base, "name": event.kind, "ph": "i", "s": "t",
                        "args": detail})
    for tid in sorted(tids):
        out.append(_thread_name(1, tid, f"process {tid}" if tid else "run"))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def trace_from_profile(
    profile: Mapping[str, Any], label: str = "sweep profile"
) -> dict[str, Any]:
    """Convert a ``repro profile --out`` JSON body into duration slices.

    Aggregates carry no timestamps, so slices are laid end-to-end in
    table order — the track reads as "where the time went", not "when".
    """
    out: list[dict[str, Any]] = [
        _process_name(1, label),
        _thread_name(1, 1, "harness phases"),
        _thread_name(1, 2, "sim events"),
    ]
    cursor = 0.0
    for name, stat in profile.get("phases", {}).items():
        dur = float(stat.get("seconds", 0.0)) * 1e6
        out.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": cursor, "dur": dur,
            "args": {"calls": stat.get("calls", 0)},
        })
        cursor += dur
    cursor = 0.0
    for name, stat in profile.get("sim", {}).get("labels", {}).items():
        dur = float(stat.get("seconds", 0.0)) * 1e6
        out.append({
            "name": name, "ph": "X", "pid": 1, "tid": 2,
            "ts": cursor, "dur": dur,
            "args": {"events": stat.get("events", 0)},
        })
        cursor += dur
    return {"traceEvents": out, "displayTimeUnit": "ms"}


#: Ledger event types rendered as span boundaries on a worker track.
_SPAN_OPEN = "unit_claimed"
_SPAN_CLOSE = frozenset({"unit_completed", "unit_released"})


def trace_from_ledger(
    events: Iterable[Mapping[str, Any]], label: str = "fleet"
) -> dict[str, Any]:
    """Convert a ledger slice (:func:`repro.obs.events.read_events`).

    One Chrome-trace *process* per worker; the run-level writer (empty
    ``worker``) gets the ``fleet`` track.  ``unit_claimed`` opens a
    span, ``unit_completed`` / ``unit_released`` close it; everything
    else is an instant.  Slices that start or stop mid-unit simply have
    unmatched boundaries — Perfetto renders them open-ended.
    """
    records = sorted(events, key=lambda r: r.get("ts", 0.0))
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    ts0 = records[0].get("ts", 0.0)
    pids: dict[str, int] = {}
    out: list[dict[str, Any]] = []
    open_units: dict[str, str] = {}

    def pid_for(worker: str) -> int:
        pid = pids.get(worker)
        if pid is None:
            pid = pids[worker] = len(pids) + 1
            out.append(_process_name(pid, worker or label))
            out.append(_thread_name(pid, 1, "units"))
        return pid

    envelope = {"v", "type", "run", "worker", "ts", "mono", "metrics"}
    for record in records:
        kind = str(record.get("type", "?"))
        worker = str(record.get("worker", "") or "")
        ts = (float(record.get("ts", 0.0)) - ts0) * 1e6
        args = {
            key: value for key, value in record.items()
            if key not in envelope
        }
        base = {"pid": pid_for(worker), "tid": 1, "ts": ts, "cat": kind}
        if kind == _SPAN_OPEN:
            unit = str(record.get("unit", "unit"))
            # A claim while a span is open (crashed worker, ledger slice)
            # closes the stale span first so B/E stay balanced per track.
            stale = open_units.pop(worker, None)
            if stale is not None:
                out.append({**base, "name": stale, "ph": "E"})
            out.append({**base, "name": unit, "ph": "B", "args": args})
            open_units[worker] = unit
        elif kind in _SPAN_CLOSE:
            unit = str(record.get("unit", open_units.get(worker, "unit")))
            out.append({**base, "name": unit, "ph": "E", "args": args})
            open_units.pop(worker, None)
        else:
            out.append({**base, "name": kind, "ph": "i", "s": "t",
                        "args": args})
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_trace(
    path: str | os.PathLike[str], trace: Mapping[str, Any]
) -> Path:
    """Validate and atomically persist one trace object."""
    validate_trace(trace)
    return atomic_write_text(
        path, json.dumps(trace, sort_keys=True, indent=1) + "\n"
    )


def validate_trace(trace: Any) -> int:
    """Structurally check Trace Event Format JSON; returns the event count.

    Accepts the object form (``{"traceEvents": [...]}``) or the bare
    array form.  Raises :class:`ValueError` naming the first offence:
    unknown phase, non-numeric ``ts``, missing ``name``, or an ``E``
    that closes nothing it opened on that track is *allowed* (partial
    slices are legal) — balance is not required, shape is.
    """
    if isinstance(trace, Mapping):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object has no 'traceEvents' array")
    elif isinstance(trace, list):
        events = trace
    else:
        raise ValueError(
            f"trace must be an object or array, got {type(trace).__name__}"
        )
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            raise ValueError(f"{where} is not an object")
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _PHASES:
            raise ValueError(f"{where} has unsupported phase {ph!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where} has bad ts {ts!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where} has no name")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} (ph=X) has bad dur {dur!r}")
        if ph in "sf" and "id" not in event:
            raise ValueError(f"{where} (flow event) has no id")
    return len(events)


def _main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.chrometrace FILE...`` — validate traces."""
    import sys

    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.chrometrace TRACE.json ...")
        return 2
    status = 0
    for path in paths:
        try:
            count = validate_trace(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            print(f"{path}: INVALID ({exc})")
            status = 1
            continue
        print(f"{path}: valid Trace Event Format ({count} event(s))")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
