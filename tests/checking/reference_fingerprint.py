"""The ``isinstance``-ladder fingerprint walker — the differential-test oracle.

This is ``repro.checking.fingerprint`` as it stood before the walk was
compiled into per-type plans: ``canon`` re-dispatching through
``isinstance`` at every node, ``_walk`` re-running it plus the exclusion
and container ladders, and ``_object_attrs`` merging ``__dict__`` and
the MRO's slots into a fresh dict per object.  It is kept only as the
reference ``test_fingerprint_differential.py`` compares the production
walker against, token for token; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import enum
import random
from typing import Any, Iterable

__all__ = ["canon", "state_tokens", "walk_tokens"]

#: Types whose values are hashed verbatim.
_PLAIN = (type(None), bool, int, float, str, bytes)

#: Walk depth guard: protocol state is shallow; anything deeper is a
#: cycle the memo set already breaks, or kernel plumbing we exclude.
_MAX_CORO_DEPTH = 32


def canon(value: Any, _depth: int = 0) -> str | None:
    """Canonical string of a *plain* value tree; ``None`` if not plain.

    Plain means: scalars, enums, and tuples/lists/dicts/sets thereof.
    Deterministic across processes (no ids, no unordered iteration).
    """
    if isinstance(value, _PLAIN):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if _depth >= 8:
        return None
    if isinstance(value, (tuple, list)):
        parts = [canon(item, _depth + 1) for item in value]
        if any(part is None for part in parts):
            return None
        bracket = "()" if isinstance(value, tuple) else "[]"
        return bracket[0] + ",".join(parts) + bracket[1]
    if isinstance(value, (set, frozenset)):
        parts = [canon(item, _depth + 1) for item in value]
        if any(part is None for part in parts):
            return None
        return "{" + ",".join(sorted(parts)) + "}"
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            ckey = canon(key, _depth + 1)
            citem = canon(item, _depth + 1)
            if ckey is None or citem is None:
                return None
            items.append(f"{ckey}:{citem}")
        return "{" + ",".join(sorted(items)) + "}"
    return None


def _object_attrs(obj: Any) -> dict[str, Any]:
    """Instance attributes of ``obj``, covering ``__dict__`` and slots."""
    items: dict[str, Any] = {}
    d = getattr(obj, "__dict__", None)
    if d:
        items.update(d)
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name not in items:
                try:
                    items[name] = getattr(obj, name)
                except AttributeError:
                    pass
    return items


_EXCLUDED_TYPES: tuple[type, ...] = ()


def _excluded_types() -> tuple[type, ...]:
    global _EXCLUDED_TYPES
    if not _EXCLUDED_TYPES:
        from repro.net.channel import Channel
        from repro.net.network import Network
        from repro.runtime.process import Process
        from repro.sim.futures import Future
        from repro.sim.loop import Simulator

        _EXCLUDED_TYPES = (
            Simulator, Network, Channel, Process, Future, random.Random
        )
    return _EXCLUDED_TYPES


def _is_excluded(value: Any) -> bool:
    """Kernel plumbing the structural walk must not descend into."""
    return isinstance(value, _excluded_types()) or callable(value)


def _walk(value: Any, label: str, out: list[str], seen: set[int]) -> None:
    """Emit deterministic state tokens for one protocol-state value."""
    plain = canon(value)
    if plain is not None:
        out.append(f"{label}={plain}")
        return
    if _is_excluded(value):
        # Bound-method callables etc. carry no state of their own; the
        # excluded kernel types are fingerprinted through other channels
        # (pending deliveries, coroutine stacks, decision snapshots).
        return
    if id(value) in seen:
        out.append(f"{label}=<cycle>")
        return
    seen.add(id(value))
    if isinstance(value, (tuple, list)):
        for index, item in enumerate(value):
            _walk(item, f"{label}[{index}]", out, seen)
        return
    if isinstance(value, dict):
        entries = []
        for key, item in value.items():
            ckey = canon(key)
            entries.append((ckey if ckey is not None else type(key).__name__, item))
        for ckey, item in sorted(entries, key=lambda pair: pair[0]):
            _walk(item, f"{label}{{{ckey}}}", out, seen)
        return
    if isinstance(value, (set, frozenset)):
        parts = sorted(
            canon(item) or type(item).__name__ for item in value
        )
        out.append(f"{label}={{{','.join(parts)}}}")
        return
    module = type(value).__module__
    if module.startswith("repro."):
        out.append(f"{label}:{type(value).__name__}")
        for name, item in sorted(_object_attrs(value).items()):
            _walk(item, f"{label}.{name}", out, seen)
        return
    # Foreign object: its type is all we can say deterministically.
    out.append(f"{label}=<{type(value).__name__}>")


def _coro_tokens(task: Any) -> list[str]:
    """Stack snapshot of one task: code positions + plain locals."""
    out = [f"task:{task.name}"]
    if task.done():
        out.append("done")
        return out
    obj: Any = task._coro
    for _ in range(_MAX_CORO_DEPTH):
        if obj is None:
            break
        frame = getattr(obj, "cr_frame", None)
        if frame is None:
            frame = getattr(obj, "gi_frame", None)
        if frame is None:
            break
        code = frame.f_code
        out.append(f"{code.co_qualname}:{frame.f_lasti}")
        for name in sorted(frame.f_locals):
            plain = canon(frame.f_locals[name])
            if plain is not None:
                out.append(f"{name}={plain}")
        nxt = getattr(obj, "cr_await", None)
        if nxt is None:
            nxt = getattr(obj, "gi_yieldfrom", None)
        obj = nxt
    return out


def message_key(message: Any) -> tuple:
    return (message.sender, message.dest, message.tag, canon(message.payload))


def walk_tokens(value: Any, label: str = "root") -> list[str]:
    """The tokens ``_walk`` emits for one value (fresh ``seen`` set)."""
    out: list[str] = []
    _walk(value, label, out, set())
    return out


def state_tokens(
    frame: Any,
    candidates: Iterable[Any],
    tasks: Iterable[Any] = (),
    extra_stacks: Iterable[Any] = (),
    fifo: bool = False,
) -> list[str]:
    """The token stream the old ``state_fingerprint`` hashed."""
    out: list[str] = [f"now={frame.sim.now!r}"]
    if fifo:
        queues: dict[tuple[int, int], list[str]] = {}
        for handle in candidates:
            message = handle._args[0]
            queues.setdefault((message.sender, message.dest), []).append(
                repr(message_key(message))
            )
        out.extend(
            f"chan:{channel!r}:" + ";".join(keys)
            for channel, keys in sorted(queues.items())
        )
    else:
        out.extend(sorted(repr(message_key(h._args[0])) for h in candidates))
    deliver_cb = frame.network._deliver_cb
    timers = []
    for time, _seq, handle in frame.sim._heap:
        if handle._cancelled or handle._callback is deliver_cb:
            continue
        qualname = getattr(handle._callback, "__qualname__", "?")
        args = ",".join(canon(a) or type(a).__name__ for a in handle._args)
        timers.append(f"timer:{time!r}:{qualname}({args})")
    out.extend(sorted(timers))
    seen: set[int] = set()
    for pid in sorted(frame.consensi):
        _walk(frame.consensi[pid], f"p{pid}", out, seen)
        _walk(frame.rb_engines[pid], f"p{pid}.rb", out, seen)
    for index, stack in enumerate(extra_stacks):
        _walk(stack, f"adv{index}", out, seen)
    for pid in sorted(frame.consensi):
        decision = frame.consensi[pid].decision
        if decision.done() and not decision.cancelled():
            out.append(f"decided:p{pid}={canon(decision.result()) or '?'}")
    for pid, when in sorted(frame.decision_times.items()):
        out.append(f"decided_at:p{pid}={when!r}")
    for task in tasks:
        out.extend(_coro_tokens(task))
    return out
