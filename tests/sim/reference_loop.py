"""The pre-``_drive`` run loops — the differential-test oracle.

These are ``Simulator.run``, ``run_until_complete``, ``_run_chosen`` and
``_run_until_complete_chosen`` verbatim as they stood before the four
loops of ``sim/loop.py`` were merged into the one ``Simulator._drive``.
What they call — ``step``, ``_pop_next``, ``_pop_next_chosen``,
``_release_handle``, ``peek_time`` — is inherited: production kept
those as they were.  The loops read a handle off every heap entry, so
they sit on ``reference_delivery.py``'s handle-per-delivery scheduling.
Kept only as the reference
``test_loop_differential.py`` compares the production loop against,
event for event; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import DeadlineExceeded, DeadlockError
from repro.sim.futures import _PENDING, Future
from repro.sim.loop import _MIN_HEAP_COMPACTION, _noop_release
from repro.sim.pool import MAX_POOL
from tests.sim.reference_delivery import HandleDeliverySimulator


class ReferenceLoopSimulator(HandleDeliverySimulator):
    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events until the queue drains.

        ``until`` bounds virtual time (events after it stay queued and the
        clock advances to ``until``); ``max_events`` bounds the number of
        events executed and raises :class:`DeadlineExceeded` when hit.

        Like :meth:`run_until_complete`, the two-tier pop is inlined:
        this is the loop the benchmark's traced kernel rungs (and any
        protocol driven to quiescence rather than to a future) spend their
        time in, and going through ``peek_time()`` + ``step()`` per event
        paid the tombstone skim and the tier merge twice.  Budget
        checks still run against the *peeked* next event, which stays
        queued when a budget trips — observable behaviour (event order,
        clock advance, error text) is unchanged.
        """
        if self._chooser is not None:
            return self._run_chosen(until, max_events)
        executed = 0
        ready = self._ready
        heap = self._heap
        clock = self._clock
        probe = self._step_probe
        heappop = heapq.heappop
        handle_pool = self.pools.handles
        while True:
            # -- peek (skimming tombstones) --------------------------------
            while ready and ready[0]._cancelled:
                ready.popleft()
            while heap and heap[0][2]._cancelled:
                # Mass cancellation (a protocol dropping its round
                # timers) surfaces here as a tombstone-dominated heap:
                # one O(n) compaction beats popping them one by one.
                cancelled = self._heap_cancelled
                if cancelled > _MIN_HEAP_COMPACTION and cancelled * 2 > len(heap):
                    self._compact_heap()
                    break
                heappop(heap)
                self._heap_cancelled -= 1
            if ready:
                first = ready[0]
                from_heap = heap and (
                    heap[0][0] < first.time
                    or (heap[0][0] == first.time and heap[0][1] < first.seq)
                )
                next_time = heap[0][0] if from_heap else first.time
            elif heap:
                from_heap = True
                next_time = heap[0][0]
            else:
                break
            # -- budgets (checked before the event is dequeued) ------------
            if until is not None and next_time > until:
                self._clock.advance_to(until)
                return
            if max_events is not None and executed >= max_events:
                raise DeadlineExceeded(
                    f"run() exceeded max_events={max_events} at t={self.now}"
                )
            # -- pop + run -------------------------------------------------
            if from_heap:
                handle = heappop(heap)[2]
                handle._loop = None
                if next_time != clock._now:
                    clock._now = next_time  # monotone by heap order
            else:
                handle = ready.popleft()
            self.events_processed += 1
            executed += 1
            emit = probe.emit
            if emit is not None:
                emit(handle)
            handle._run()
            if handle._pooled:
                # Retire into the freelist (inlined _release_handle).
                handle._callback = _noop_release
                args = handle._args
                if type(args) is list:
                    args[0] = None
                else:
                    handle._args = ()
                if len(handle_pool) < MAX_POOL:
                    handle_pool.append(handle)
        if until is not None and until > self._clock._now:
            self._clock.advance_to(until)

    def run_until_complete(
        self,
        future: Future,
        max_time: float | None = None,
        max_events: int | None = None,
    ) -> Any:
        """Drive the simulation until ``future`` completes; return its result.

        Raises :class:`DeadlockError` if the event queue drains first, and
        :class:`DeadlineExceeded` if ``max_time`` (virtual) or
        ``max_events`` would be exceeded.

        This is the sweep engine's innermost loop, so the two-tier pop is
        inlined here: budget checks run against the *peeked* next event,
        which stays queued if a budget trips (exactly the pre-refactor
        contract).
        """
        if self._chooser is not None:
            return self._run_until_complete_chosen(future, max_time, max_events)
        executed = 0
        ready = self._ready
        heap = self._heap
        clock = self._clock
        probe = self._step_probe
        heappop = heapq.heappop
        handle_pool = self.pools.handles
        while future._state is _PENDING:
            # -- peek (skimming tombstones) --------------------------------
            while ready and ready[0]._cancelled:
                ready.popleft()
            while heap and heap[0][2]._cancelled:
                cancelled = self._heap_cancelled
                if cancelled > _MIN_HEAP_COMPACTION and cancelled * 2 > len(heap):
                    self._compact_heap()
                    break
                heappop(heap)
                self._heap_cancelled -= 1
            if ready:
                first = ready[0]
                from_heap = heap and (
                    heap[0][0] < first.time
                    or (heap[0][0] == first.time and heap[0][1] < first.seq)
                )
                next_time = heap[0][0] if from_heap else first.time
            elif heap:
                from_heap = True
                next_time = heap[0][0]
            else:
                raise DeadlockError(
                    f"event queue drained at t={self.now} while waiting for "
                    f"{future!r}"
                )
            # -- budgets (checked before the event is dequeued) ------------
            if max_time is not None and next_time > max_time:
                raise DeadlineExceeded(
                    f"virtual deadline {max_time} reached while waiting for "
                    f"{future!r}"
                )
            if max_events is not None and executed >= max_events:
                raise DeadlineExceeded(
                    f"event budget {max_events} exhausted while waiting for "
                    f"{future!r}"
                )
            # -- pop + run -------------------------------------------------
            if from_heap:
                handle = heappop(heap)[2]
                handle._loop = None
                if next_time != clock._now:
                    clock._now = next_time  # monotone by heap order
            else:
                handle = ready.popleft()
            self.events_processed += 1
            executed += 1
            emit = probe.emit
            if emit is not None:
                emit(handle)
            handle._run()
            if handle._pooled:
                # Retire into the freelist (inlined _release_handle).
                handle._callback = _noop_release
                args = handle._args
                if type(args) is list:
                    args[0] = None
                else:
                    handle._args = ()
                if len(handle_pool) < MAX_POOL:
                    handle_pool.append(handle)
        return future.result()

    def _run_chosen(
        self, until: float | None, max_events: int | None
    ) -> None:
        """Chooser-mode :meth:`run`: per-event ``step()`` so every pop
        routes through the chooser (exploration rates dominate the loop
        overhead, so nothing is inlined here)."""
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._clock.advance_to(until)
                return
            if max_events is not None and executed >= max_events:
                raise DeadlineExceeded(
                    f"run() exceeded max_events={max_events} at t={self.now}"
                )
            self.step()
            executed += 1
        if until is not None and until > self._clock._now:
            self._clock.advance_to(until)

    def _run_until_complete_chosen(
        self,
        future: Future,
        max_time: float | None,
        max_events: int | None,
    ) -> Any:
        """Chooser-mode :meth:`run_until_complete` (same budget contract,
        same error texts, per-event ``step()`` for the chooser)."""
        executed = 0
        while future._state is _PENDING:
            next_time = self.peek_time()
            if next_time is None:
                raise DeadlockError(
                    f"event queue drained at t={self.now} while waiting for "
                    f"{future!r}"
                )
            if max_time is not None and next_time > max_time:
                raise DeadlineExceeded(
                    f"virtual deadline {max_time} reached while waiting for "
                    f"{future!r}"
                )
            if max_events is not None and executed >= max_events:
                raise DeadlineExceeded(
                    f"event budget {max_events} exhausted while waiting for "
                    f"{future!r}"
                )
            self.step()
            executed += 1
        return future.result()
