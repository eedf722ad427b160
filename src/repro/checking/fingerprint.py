"""Canonical state fingerprints for visited-state deduplication.

Two executions that reach *semantically identical* global states must
produce identical fingerprints even though their kernels differ in
bookkeeping (message uids, scheduling sequence numbers, pool contents,
deque order).  The fingerprint therefore hashes only:

* the virtual clock;
* the pending-delivery **multiset** by semantic message key — sorted, so
  commuting delivery orders (the diamonds dedup exists to collapse)
  fingerprint equal;
* the pending-timer multiset (time, callback qualname, plain args);
* every protocol object's state, walked structurally (kernel objects —
  simulator, network, processes, futures, RNG streams — are skipped;
  their protocol-relevant content is captured elsewhere);
* each tracked coroutine's stack: code position plus plain-valued
  locals, which is where round counters and await points live;
* the decisions (and decision times) of tracked processes.

Excluded on purpose: message uids, handle sequence numbers, object
identities, network counters — all vary between executions that are
about to behave identically.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import random
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..net.channel import Channel
from ..net.network import Network
from ..runtime.process import Process
from ..sim.futures import Future
from ..sim.loop import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..orchestration.runner import RuntimeFrame
    from ..sim.handles import EventHandle
    from ..sim.tasks import Task

__all__ = ["TokenCache", "canon", "state_fingerprint", "state_tokens"]

#: Types whose values are hashed verbatim (subclasses included: an
#: ``IntEnum`` member hashes as its ``repr``).
_PLAIN = (type(None), bool, int, float, str, bytes)
#: The same, matched on ``type()`` — nearly every node of real protocol
#: state, so both walkers test this before anything else.
_EXACT_PLAIN = frozenset(_PLAIN)

#: Walk depth guard: protocol state is shallow; anything deeper is a
#: cycle the memo set already breaks, or kernel plumbing we exclude.
_MAX_CORO_DEPTH = 32

# What either walker does with a value is a function of its type alone,
# so it is decided once per type (subclass semantics included) and
# cached.  Codes up to ``_SET`` are the types ``canon`` can render.
_REPR = 0     # scalar (or scalar subclass): its ``repr``
_ENUM = 1     # enum member: ``Type.NAME``
_TUPLE = 2    # plain, else walked item by item
_LIST = 3
_MAPPING = 4  # dict: plain, else entry by entry in canonical key order
_SET = 5      # set / frozenset: plain, else one token of sorted members
_OBJECT = 6   # a ``repro.*`` instance: its attributes, by name
_FOREIGN = 7  # anything else: the type name is all that is deterministic

#: type -> ``(code, excluded, type name, slot names)``.  ``excluded``
#: marks kernel plumbing and callables the structural walk must not
#: descend into; ``slot names`` are the ``__slots__`` of the whole MRO,
#: sorted (``_OBJECT`` only).
_Plan = tuple[int, bool, str, tuple[str, ...]]
_PLANS: dict[type, _Plan] = {}

_EXCLUDED_TYPES = (Simulator, Network, Channel, Process, Future, random.Random)


def _plan(value: Any) -> _Plan:
    """Build (and cache) the plan of ``type(value)``."""
    kind = type(value)
    slots: tuple[str, ...] = ()
    if isinstance(value, _PLAIN):
        code = _REPR
    elif isinstance(value, enum.Enum):
        code = _ENUM
    elif isinstance(value, tuple):
        code = _TUPLE
    elif isinstance(value, list):
        code = _LIST
    elif isinstance(value, dict):
        code = _MAPPING
    elif isinstance(value, (set, frozenset)):
        code = _SET
    elif kind.__module__.startswith("repro."):
        code = _OBJECT
        slots = tuple(sorted({
            name
            for cls in kind.__mro__
            for name in getattr(cls, "__slots__", ())
        }))
    else:
        code = _FOREIGN
    # Bound-method callables etc. carry no state of their own; the
    # excluded kernel types are fingerprinted through other channels
    # (pending deliveries, coroutine stacks, decision snapshots).
    excluded = isinstance(value, _EXCLUDED_TYPES) or callable(value)
    plan = _PLANS[kind] = (code, excluded, kind.__name__, slots)
    return plan


def canon(value: Any, _depth: int = 0) -> str | None:
    """Canonical string of a *plain* value tree; ``None`` if not plain.

    Plain means: scalars, enums, and tuples/lists/dicts/sets thereof.
    Deterministic across processes (no ids, no unordered iteration).
    A container gives up at its first non-plain item.
    """
    kind = type(value)
    if kind in _EXACT_PLAIN:
        return repr(value)
    plan = _PLANS.get(kind)
    if plan is None:
        plan = _plan(value)
    code = plan[0]
    if code == _REPR:
        return repr(value)
    if code == _ENUM:
        return f"{plan[2]}.{value.name}"
    if code > _SET or _depth >= 8:
        return None
    parts = []
    if code == _MAPPING:
        for key, item in value.items():
            ckey = canon(key, _depth + 1)
            if ckey is None:
                return None
            citem = canon(item, _depth + 1)
            if citem is None:
                return None
            parts.append(f"{ckey}:{citem}")
        return "{" + ",".join(sorted(parts)) + "}"
    for item in value:
        if type(item) in _EXACT_PLAIN:
            parts.append(repr(item))
            continue
        part = canon(item, _depth + 1)
        if part is None:
            return None
        parts.append(part)
    if code == _TUPLE:
        return "(" + ",".join(parts) + ")"
    if code == _LIST:
        return "[" + ",".join(parts) + "]"
    return "{" + ",".join(sorted(parts)) + "}"


def _walk(value: Any, label: str, out: list[str], seen: set[int]) -> None:
    """Emit deterministic state tokens for one protocol-state value."""
    kind = type(value)
    if kind in _EXACT_PLAIN:
        out.append(f"{label}={value!r}")
        return
    plan = _PLANS.get(kind)
    if plan is None:
        plan = _plan(value)
    code, excluded, name, slots = plan
    if code <= _SET:
        plain = canon(value)
        if plain is not None:
            out.append(f"{label}={plain}")
            return
    if excluded:
        return
    if id(value) in seen:
        out.append(f"{label}=<cycle>")
        return
    seen.add(id(value))
    if code == _OBJECT:
        out.append(f"{label}:{name}")
        attrs = getattr(value, "__dict__", None)
        if not attrs:
            for attr in slots:
                try:
                    item = getattr(value, attr)
                except AttributeError:
                    continue
                _walk(item, f"{label}.{attr}", out, seen)
            return
        if slots:
            # Slots below a ``__dict__``: instance attributes shadow them.
            attrs = dict(attrs)
            for attr in slots:
                if attr not in attrs:
                    try:
                        attrs[attr] = getattr(value, attr)
                    except AttributeError:
                        pass
        for attr in sorted(attrs):
            _walk(attrs[attr], f"{label}.{attr}", out, seen)
    elif code == _TUPLE or code == _LIST:
        for index, item in enumerate(value):
            _walk(item, f"{label}[{index}]", out, seen)
    elif code == _MAPPING:
        entries = []
        for key, item in value.items():
            ckey = canon(key)
            entries.append((ckey if ckey is not None else type(key).__name__, item))
        for ckey, item in sorted(entries, key=lambda pair: pair[0]):
            _walk(item, f"{label}{{{ckey}}}", out, seen)
    elif code == _SET:
        parts = sorted(
            canon(item) or type(item).__name__ for item in value
        )
        out.append(f"{label}={{{','.join(parts)}}}")
    else:
        out.append(f"{label}=<{name}>")


def _coro_tokens(task: "Task") -> list[str]:
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
        # One snapshot: every ``f_locals`` read rebuilds the dict.
        local_vars = frame.f_locals
        for name in sorted(local_vars):
            plain = canon(local_vars[name])
            if plain is not None:
                out.append(f"{name}={plain}")
        nxt = getattr(obj, "cr_await", None)
        if nxt is None:
            nxt = getattr(obj, "gi_yieldfrom", None)
        obj = nxt
    return out


class TokenCache:
    """What one execution has already canonicalised: per-process token
    blocks and per-message keys.

    Consecutive fingerprints of one execution differ in at most one
    process's protocol state, so the structural walk of a process is
    kept — as the token list it emitted — until something can have
    touched that process.  The chooser that sees every delivery of the
    execution owns the cache and reports each one through
    :meth:`delivered`; :func:`state_tokens` only fills and reads it.
    Two rules are the whole invalidation:

    1. A delivery drops its destination's block.  A handler (and the
       same-instant cascade of task steps and self-deliveries behind
       it) touches only its own process's state — what the sleep sets
       already rest on; the cache rests on nothing more.
    2. Handing out the *last* pending delivery drops every block.  The
       heap is consulted only at ready-quiescence
       (``Simulator._pop_next_chosen``), which can only follow a choice
       point that emptied the candidates — so that is the only moment a
       timer, which may belong to any process, can fire.  The clock is
       *not* the key: two round timers armed at the same instant expire
       at one ``sim.now`` with a choice point possibly between them.

    A block is walked with a memo of its own, where the cache-less walk
    shares one across processes.  The streams are identical because no
    walked object is reachable from two processes
    (``tests/checking/test_fingerprint_differential.py`` pins both).

    Message keys need no invalidation: a pending message is immutable
    and its ``uid`` is unique within the execution's network, so
    :meth:`key_of` canonicalises each payload once, for the chooser's
    sleep sets and for every pending multiset the message shows up in.
    """

    __slots__ = ("blocks", "extra_pids", "walks", "keys", "_message_key")

    def __init__(self, extra_pids: Iterable[int] = ()) -> None:
        # ``choice`` imports this module, so not at the top — and once
        # per execution here rather than once per message in ``key_of``.
        from .choice import message_key

        self._message_key = message_key
        #: ``pid -> tokens`` of the process's stacks as last walked.
        self.blocks: dict[int, list[str]] = {}
        #: Owners of the ``extra_stacks`` passed next to this cache, in
        #: the same order (disjoint from the tracked pids).
        self.extra_pids = tuple(extra_pids)
        #: Blocks actually walked (``fingerprints x processes`` without
        #: the cache).
        self.walks = 0
        #: ``message.uid -> (key, repr(key))``.
        self.keys: dict[int, tuple[tuple, str]] = {}

    def block(self, pid: int, roots: Iterable[tuple[str, Any]]) -> list[str]:
        """``pid``'s tokens: as last walked, else walked now — the same
        :func:`_walk` over its labelled ``roots``, under one fresh memo."""
        block = self.blocks.get(pid)
        if block is None:
            block = self.blocks[pid] = []
            seen: set[int] = set()
            for label, root in roots:
                _walk(root, label, block, seen)
            self.walks += 1
        return block

    def key_of(self, message: Any) -> tuple[tuple, str]:
        """``message_key(message)`` and its ``repr``, computed once."""
        entry = self.keys.get(message.uid)
        if entry is None:
            key = self._message_key(message)
            entry = self.keys[message.uid] = (key, repr(key))
        return entry

    def delivered(self, dest: int, last: bool) -> None:
        """A delivery to ``dest`` was handed out; ``last`` when it left
        no other delivery pending."""
        if last:
            self.blocks.clear()
        else:
            self.blocks.pop(dest, None)


def _process_roots(
    frame: "RuntimeFrame", extra_stacks: Iterable[Any], extra_pids: Iterable[int]
) -> Iterator[tuple[int, tuple[tuple[str, Any], ...]]]:
    """``(pid, ((label, root), ...))`` per process, in token order:
    tracked stacks by pid, then the extra (adversary) stacks as given."""
    for pid in sorted(frame.consensi):
        yield pid, (
            (f"p{pid}", frame.consensi[pid]),
            (f"p{pid}.rb", frame.rb_engines[pid]),
        )
    for index, (pid, stack) in enumerate(zip(extra_pids, extra_stacks)):
        yield pid, ((f"adv{index}", stack),)


def state_tokens(
    frame: "RuntimeFrame",
    candidates: Iterable["EventHandle"],
    tasks: Iterable["Task"] = (),
    extra_stacks: Iterable[Any] = (),
    fifo: bool = False,
    cache: TokenCache | None = None,
) -> list[str]:
    """The token stream :func:`state_fingerprint` hashes.

    Called when every live ready handle is a pending cross-process
    delivery (``candidates``), so the ready tier contributes exactly its
    sorted semantic multiset.  With ``fifo`` the multiset is grouped
    into per-channel *sequences* instead: under FIFO channels the order
    of two pending messages on the same channel is part of the state
    (it fixes which is deliverable), so states differing only there must
    not fingerprint equal.  ``tasks`` are the coroutines created this
    run (the simulator's task list); ``extra_stacks`` are
    additional protocol objects to walk (untracked adversary stacks).
    ``cache`` is the calling execution's :class:`TokenCache`; without
    one every process is walked, under one memo.
    """
    if cache is None:
        from .choice import message_key

        def key_text(message: Any) -> str:
            return repr(message_key(message))
    else:
        def key_text(message: Any) -> str:
            return cache.key_of(message)[1]

    out: list[str] = [f"now={frame.sim.now!r}"]
    if fifo:
        queues: dict[tuple[int, int], list[str]] = {}
        for handle in candidates:
            message = handle._args[0]
            queues.setdefault((message.sender, message.dest), []).append(
                key_text(message)
            )
        out.extend(
            f"chan:{channel!r}:" + ";".join(keys)
            for channel, keys in sorted(queues.items())
        )
    else:
        out.extend(sorted(key_text(h._args[0]) for h in candidates))
    deliver_cb = frame.network._deliver_cb
    timers = []
    for time, callback, args in frame.sim._scheduled():
        if callback is deliver_cb:
            continue
        qualname = getattr(callback, "__qualname__", "?")
        args = ",".join(canon(a) or type(a).__name__ for a in args)
        timers.append(f"timer:{time!r}:{qualname}({args})")
    out.extend(sorted(timers))
    if cache is None:
        seen: set[int] = set()  # one memo spans every process
        for _, roots in _process_roots(frame, extra_stacks, itertools.count()):
            for label, root in roots:
                _walk(root, label, out, seen)
    else:
        for pid, roots in _process_roots(frame, extra_stacks, cache.extra_pids):
            out.extend(cache.block(pid, roots))
    for pid in sorted(frame.consensi):
        decision = frame.consensi[pid].decision
        if decision.done() and not decision.cancelled():
            out.append(f"decided:p{pid}={canon(decision.result()) or '?'}")
    for pid, when in sorted(frame.decision_times.items()):
        out.append(f"decided_at:p{pid}={when!r}")
    for task in tasks:
        out.extend(_coro_tokens(task))
    return out


def state_fingerprint(
    frame: "RuntimeFrame",
    candidates: Iterable["EventHandle"],
    tasks: Iterable["Task"] = (),
    extra_stacks: Iterable[Any] = (),
    fifo: bool = False,
    cache: TokenCache | None = None,
) -> str:
    """SHA-256 fingerprint of the global state at one choice point."""
    tokens = state_tokens(frame, candidates, tasks, extra_stacks, fifo, cache)
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8", "replace"))
    return digest.hexdigest()
