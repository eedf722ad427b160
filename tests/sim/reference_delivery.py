"""Handle-per-delivery scheduling — the differential-test oracle.

This is ``Simulator.schedule_delivery`` verbatim as it stood before a
future delivery became the heap entry ``(time, seq, arg, callback)``:
every delivery, future or same-instant, is wrapped in a pooled
``EventHandle`` whose argument travels in a one-slot list, pushed as
``(time, seq, handle)``, run through ``handle._run()`` and retired into
the freelist.  With it every heap entry is a handle entry, which is what
the older reference loops (``reference_loop.py``,
``reference_chooser_pop.py``) read; they build on this class.  Kept only
as the reference ``test_delivery_entries.py`` and the two older
differential tests compare production against; nothing under ``src/``
imports it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim import Simulator
from repro.sim.handles import EventHandle


class HandleDeliverySimulator(Simulator):
    #: Pooled handles this oracle took for *future* deliveries — the
    #: acquisitions production no longer makes (tests subtract them to
    #: compare pool accounting).
    future_delivery_handles = 0

    def schedule_delivery(
        self, time: float, callback: Callable[..., Any], arg: Any
    ) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        pools = self.pools
        pool = pools.handles
        if pool:
            handle = pool.pop()
            pools.handles_reused += 1
            handle.time = time
            handle.seq = seq
            handle._callback = callback
            args = handle._args
            if type(args) is list:
                args[0] = arg
            else:
                handle._args = [arg]
            handle._cancelled = False
        else:
            pools.handles_created += 1
            handle = EventHandle(time, seq, callback, [arg])
            handle._pooled = True
        if time == self._clock._now:
            self._ready.append(handle)
        else:
            self.future_delivery_handles += 1
            # No ``_loop`` backref: pooled handles are never cancelled,
            # so they never feed the lazy-compaction accounting.
            heapq.heappush(self._heap, (time, seq, handle))
