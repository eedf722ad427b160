"""Per-context object freelists for the allocation-lean kernel.

Under the paper's system model (Section 2.1) a run is dominated by
dense message traffic: every simulator event on the hot path used to
allocate a fresh :class:`~repro.net.messages.Message`, a fresh
:class:`~repro.sim.handles.EventHandle` and a per-delivery argument
tuple, all of which became garbage microseconds later.  The related
consensus-layer work (PAPERS.md) makes the same observation for pod's
delivery path: per-message work must stay *constant-allocation* or
allocator/GC churn becomes the throughput ceiling long before the
protocol logic does.

:class:`ObjectPools` is the shared home for that recycled state:

* **handle freelist** — retired scheduler handles, re-armed in place by
  the simulator's pooled scheduling entry points
  (:meth:`~repro.sim.loop.Simulator.call_soon_pooled`, and
  :meth:`~repro.sim.loop.Simulator.schedule_delivery` for a
  same-instant delivery) and released by the event loop
  (``Simulator._drive``) right after the callback returns.  Handles are
  for the ready tier and for public scheduling only: a *future*
  delivery rides the heap as a bare ``(time, seq, arg, callback)`` entry
  and takes no handle, pooled or otherwise, so this freelist sees task
  steps, not messages;
* **message freelist** — retired network messages, recycled by
  :class:`~repro.net.network.Network` when it runs in ``recycle`` mode
  (release happens after the delivery handler returns, and *never* for
  a message that was handed to an instrumentation sink — see the
  copy-on-emit contract in :mod:`repro.instrumentation`);
* **tag intern table** — protocol tags interned once per context so
  every counter/handler dict keyed by tag compares by pointer;
* **pid tuples** — the ``1..n`` destination ids materialized once per
  ``n``, so broadcast fan-outs iterate shared int objects.

One :class:`ObjectPools` lives on each
:class:`~repro.orchestration.kernel.KernelContext` (so freelists stay
warm across every scenario a sweep worker executes) and a standalone
:class:`~repro.sim.loop.Simulator` creates a private one (so even a
bare microbench reaches steady-state reuse after the first few events).

The ``*_created`` / ``*_reused`` counters are exact and deterministic —
they are the kernel's own accounting, not a sampling profiler — which
makes them the right signal for the allocation regression gate
(``sim.allocs_per_event`` of the ``benchmarks/stack`` traced run, which
CI's stack-smoke job bounds): a code change that bypasses a freelist
shows up as a jump in created-per-event no matter how the allocator or
the GC happens to behave.
"""

from __future__ import annotations

import sys

__all__ = ["MAX_POOL", "ObjectPools"]

#: Freelist size cap (each, handles and messages).  Big enough that any
#: realistic in-flight window recycles fully; small enough that a burst
#: can never pin unbounded memory in a long-lived worker context.
MAX_POOL = 4096


class ObjectPools:
    """Freelists, intern tables and exact reuse accounting."""

    __slots__ = (
        "handles",
        "messages",
        "tags",
        "_pid_tuples",
        "handles_created",
        "handles_reused",
        "messages_created",
        "messages_reused",
    )

    def __init__(self) -> None:
        #: Retired :class:`~repro.sim.handles.EventHandle` objects.
        self.handles: list = []
        #: Retired :class:`~repro.net.messages.Message` objects
        #: (``payload`` cleared on release so no user data is pinned).
        self.messages: list = []
        #: ``tag -> sys.intern(tag)``, filled on first use per tag.
        self.tags: dict[str, str] = {}
        self._pid_tuples: dict[int, tuple[int, ...]] = {}
        self.handles_created = 0
        self.handles_reused = 0
        self.messages_created = 0
        self.messages_reused = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern_tag(self, tag: str) -> str:
        """The canonical (interned) object for ``tag``."""
        interned = self.tags.get(tag)
        if interned is None:
            interned = self.tags[tag] = sys.intern(tag)
        return interned

    def pid_range(self, n: int) -> tuple[int, ...]:
        """The shared ``(1, ..., n)`` tuple of process-id objects."""
        pids = self._pid_tuples.get(n)
        if pids is None:
            pids = self._pid_tuples[n] = tuple(range(1, n + 1))
        return pids

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Exact creation/reuse counters as one JSON-friendly dict."""
        return {
            "pool_handles_created": self.handles_created,
            "pool_handles_reused": self.handles_reused,
            "pool_messages_created": self.messages_created,
            "pool_messages_reused": self.messages_reused,
        }

    def created_total(self) -> int:
        """Objects the pooled paths had to allocate (lower is better)."""
        return self.handles_created + self.messages_created

    def reused_total(self) -> int:
        """Objects served from a freelist instead of the allocator."""
        return self.handles_reused + self.messages_reused

    def clear(self) -> None:
        """Drop every pooled object and reset the counters (tests)."""
        self.handles.clear()
        self.messages.clear()
        self.tags.clear()
        self._pid_tuples.clear()
        self.handles_created = self.handles_reused = 0
        self.messages_created = self.messages_reused = 0

    def __repr__(self) -> str:
        return (
            f"ObjectPools(handles={len(self.handles)}, "
            f"messages={len(self.messages)}, "
            f"created={self.created_total()}, reused={self.reused_total()})"
        )
