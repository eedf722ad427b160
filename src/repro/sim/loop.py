"""The deterministic discrete-event simulator.

:class:`Simulator` owns a virtual clock and a **two-tier** event queue.
Events are totally ordered by ``(time, sequence-number)``: two events
scheduled for the same virtual instant run in the order they were
scheduled, so a run is a pure function of its configuration and seeds.

The two tiers exploit the paper's system model (Section 2.1): local
processing time is zero relative to message delays, so real runs are
dominated by cascades of *same-instant* events — task steps, predicate
rechecks, zero-delay callbacks.  Those go through a FIFO ready deque
(:meth:`call_soon`, and any :meth:`call_at` for the current instant) at
O(1) per event; only genuinely future events (timers, message
deliveries) pay the heap's O(log n), and heap entries are tuples led by
``(time, seq)`` so even those comparisons run in C.  The two tiers are
merged by ``(time, seq)`` at execution, so the observable order is
*identical* to a single global priority queue — golden-trace fixtures
(``tests/golden/``) pin this bit for bit.

The heap holds two entry shapes.  ``(time, seq, handle)`` is a timer or
any other :meth:`~Simulator.call_at` event: the handle is the caller's,
cancellable, and the only thing ``_cancelled`` / ``_loop`` are ever read
from.  ``(time, seq, arg, callback)`` is a *delivery entry*
(:meth:`~Simulator.schedule_delivery` for a future instant): nobody
holds it, so it cannot be cancelled, it is always live, and the loop
runs it as ``callback(arg)`` with no handle in between — one tuple per
in-flight message instead of a tuple, a handle and an argument slot.
Everything that walks the heap tells the two apart by length.

Cancelled events are removed lazily: cancellation just flags the handle
(and, for heap entries, bumps a counter), tombstones are skipped when
they surface, and the heap is compacted in one pass when more than half
of it is dead — so protocol code can cancel thousands of round timers
without ever paying O(n) per cancel.
"""

from __future__ import annotations

import heapq
import inspect
from collections import deque
from typing import Any, Callable, Coroutine, Iterator

from ..errors import DeadlineExceeded, DeadlockError, SimulationError
from ..instrumentation import SIM_STEP, InstrumentationBus
from .clock import VirtualClock
from .futures import _PENDING, Future
from .handles import EventHandle
from .pool import MAX_POOL, ObjectPools
from .tasks import Task

__all__ = ["Simulator"]

#: Compact the heap only when it holds at least this many tombstones
#: (and they outnumber the live entries) — small heaps never bother.
_MIN_HEAP_COMPACTION = 64

#: Why :meth:`Simulator._drive` returned.
_STOP_FUTURE = "future done"
_STOP_DRAINED = "queue drained"
_STOP_TIME = "time limit"
_STOP_EVENTS = "max_events"

#: Never resolves: what :meth:`Simulator.run` waits for, so only the
#: queue or a budget stops it.
_NEVER = Future(name="never")


class Simulator:
    """A virtual-time event loop for distributed-protocol simulation.

    Typical use::

        sim = Simulator()
        task = sim.create_task(protocol.run())
        result = sim.run_until_complete(task, max_time=10_000)

    ``bus`` shares an :class:`~repro.instrumentation.InstrumentationBus`
    with the other kernel components of a run; the simulator publishes
    the ``sim.step`` probe on it (payload: the handle about to run).
    With no sink attached the probe costs one pointer check per event.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        bus: InstrumentationBus | None = None,
        pools: ObjectPools | None = None,
    ) -> None:
        self._clock = VirtualClock(start_time)
        #: Future events, C-compared on ``(time, seq)``: ``(time, seq,
        #: handle)``, or ``(time, seq, arg, callback)`` for a delivery
        #: entry (see the module docstring).
        self._heap: list[tuple] = []
        #: Same-instant events, FIFO (the fast tier).
        self._ready: deque[EventHandle] = deque()
        self._next_seq = 0
        self._heap_cancelled = 0
        self.bus = bus if bus is not None else InstrumentationBus()
        self._step_probe = self.bus.probe(SIM_STEP)
        #: Object freelists (shared with the network and, in sweeps,
        #: with the per-worker :class:`KernelContext` so reuse survives
        #: across runs).  A standalone simulator gets a private set.
        self.pools = pools if pools is not None else ObjectPools()
        #: Total events executed so far (cancelled events excluded).
        self.events_processed = 0
        #: Schedule chooser (exhaustive checking): when set, ready-tier
        #: pops go through :meth:`_pop_next_chosen` so delivery order
        #: becomes an explicit choice instead of FIFO.
        self._chooser: Any | None = None
        #: Chooser mode only: ready handles already classified as choice
        #: events, in ready order, waiting for the chooser's pick.  Every
        #: entry precedes (lower seq) everything still in ``_ready``.
        self._choices: list[EventHandle] = []
        #: Every task :meth:`create_task` made, in creation order (the
        #: checker fingerprints their coroutine stacks).
        self._tasks: list[Task] = []

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._clock._now

    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at virtual time ``time``."""
        now = self._clock._now
        time = float(time)
        if time < now:
            raise SimulationError(
                f"cannot schedule event in the past: {time!r} < {now!r}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        if time == now:
            # Same-instant events take the FIFO fast tier: no heap, no
            # log-n, and (time, seq) order is preserved by construction.
            self._ready.append(handle)
        else:
            handle._loop = self
            cancelled = self._heap_cancelled
            if cancelled > _MIN_HEAP_COMPACTION and cancelled * 2 > len(self._heap):
                self._compact_heap()
            heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._clock._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant (FIFO)."""
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = EventHandle(self._clock._now, seq, callback, args)
        self._ready.append(handle)
        return handle

    # ------------------------------------------------------------------
    # Pooled scheduling (kernel-internal fast paths)
    # ------------------------------------------------------------------
    # The two entry points below return nothing, so what they queue
    # never escapes the kernel: nobody can hold it, so nobody can cancel
    # it.  That is what lets a same-instant event ride a handle recycled
    # through ``self.pools`` right after its callback runs, and a future
    # delivery ride the heap with no handle at all.  Public scheduling
    # stays on call_soon/call_at, which allocate caller-owned handles.

    def schedule_delivery(
        self, time: float, callback: Callable[..., Any], arg: Any
    ) -> None:
        """Schedule ``callback(arg)`` at ``time``, uncancellably.

        The network's delivery path: ``time`` must already be clamped to
        ``>= now`` (channels guarantee it).  A future delivery is pushed
        as the heap entry ``(time, seq, arg, callback)`` and run straight
        from it.  A same-instant one (check mode's instant channels)
        takes a recycled handle on the ready tier, where choosers
        classify it by ``_callback`` / ``_args[0]``; its argument
        travels in the handle's reusable one-slot list.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        if time != self._clock._now:
            heapq.heappush(self._heap, (time, seq, arg, callback))
            return
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
        self._ready.append(handle)

    def call_soon_pooled(
        self, callback: Callable[..., Any], args: tuple[Any, ...] = ()
    ) -> None:
        """Schedule ``callback(*args)`` now, on a recycled handle.

        ``args`` is taken by reference (pass a constant tuple on hot
        paths).  Used by the task-stepping machinery, whose handles are
        always discarded at the call site.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        pools = self.pools
        pool = pools.handles
        if pool:
            handle = pool.pop()
            pools.handles_reused += 1
            handle.time = self._clock._now
            handle.seq = seq
            handle._callback = callback
            handle._args = args
            handle._cancelled = False
        else:
            pools.handles_created += 1
            handle = EventHandle(self._clock._now, seq, callback, args)
            handle._pooled = True
        self._ready.append(handle)

    def _compact_heap(self) -> None:
        """Drop every tombstone from the heap in one O(n) pass.

        In place (slice assignment), never rebinding ``self._heap``:
        :meth:`_drive` holds a local alias, and a rebound list would
        silently strand events scheduled after a mid-run compaction.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if _live(entry)]
        heapq.heapify(heap)
        self._heap_cancelled = 0

    # ------------------------------------------------------------------
    # Coroutines
    # ------------------------------------------------------------------
    def create_task(
        self, coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> Task:
        """Wrap ``coro`` in a :class:`~repro.sim.tasks.Task` and schedule it."""
        task = Task(coro, self, name=name)
        self._tasks.append(task)
        return task

    def _close_unstarted_tasks(self) -> None:
        """Close every coroutine that never took its first step.

        For the owner of a run it is abandoning mid-flight (a tripped
        budget, an aborted exploration): a task created just before the
        stop still has its first step queued, and its coroutine would
        warn "never awaited" when the discarded run is collected.
        """
        for task in self._tasks:
            coro = task._coro
            if inspect.getcoroutinestate(coro) == inspect.CORO_CREATED:
                coro.close()

    def sleep(self, delay: float) -> Future:
        """Return a future that resolves ``delay`` time units from now."""
        fut = Future(name=f"sleep({delay})")
        handle = self.call_later(delay, _resolve_sleep, fut)
        fut.add_done_callback(lambda f: handle.cancel() if f.cancelled() else None)
        return fut

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self) -> EventHandle | None:
        """Remove and return the next live handle in (time, seq) order,
        advancing the clock to it; ``None`` when both tiers are empty.
        A delivery entry comes back as a throw-away handle."""
        ready = self._ready
        heap = self._heap
        # Skim tombstones so the tier merge below compares live events.
        while ready and ready[0]._cancelled:
            ready.popleft()
        while heap and len(heap[0]) == 3 and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._heap_cancelled -= 1
        if ready:
            # Ready events sit at the current instant; a heap entry can
            # only precede them when it was scheduled for this same
            # instant earlier (lower seq) — merge by (time, seq).
            first = ready[0]
            if heap and (
                heap[0][0] < first.time
                or (heap[0][0] == first.time and heap[0][1] < first.seq)
            ):
                return _detach(heapq.heappop(heap))
            return ready.popleft()
        if heap:
            handle = _detach(heapq.heappop(heap))
            # Monotone by heap order; bypass advance_to's backward check.
            self._clock._now = handle.time
            return handle
        return None

    def set_chooser(self, chooser: Any | None) -> None:
        """Install (or clear) a schedule chooser.

        A chooser exposes the scheduler's one remaining degree of freedom
        — which same-instant ready event runs next — as an explicit
        decision.  The protocol (duck-typed; see
        :mod:`repro.checking.choice`):

        * ``is_choice(handle) -> bool``: whether a ready handle is a
          *choice point* (a cross-process message delivery) rather than
          an internal event (task step, callback, self-delivery), which
          always runs eagerly in FIFO order;
        * ``choose(candidates) -> int``: pick the next handle when every
          live ready handle is a choice (called even for singletons;
          choosers treat a lone candidate as a forced move that consumes
          no schedule index).

        With a chooser installed, the ready tier drains fully before any
        heap entry runs — heap timers fire only at ready-quiescence.
        This is the check-mode fragment: same-instant cascades always
        outrun positive-delay timers, which is exactly how the sampling
        stack behaves for instant deliveries.

        The loop reads the chooser before every event, so installing or
        clearing one from inside a callback takes effect at the next
        event.  Choice events already set aside for the previous chooser
        go back to the front of the ready tier (they precede everything
        in it), so a new chooser reclassifies them and ``None`` resumes
        plain FIFO order.
        """
        choices = self._choices
        if choices:
            self._ready.extendleft(reversed(choices))
            choices.clear()
        self._chooser = chooser

    def _pop_next_chosen(self) -> EventHandle | None:
        """The chooser-mode variant of :meth:`_pop_next`.

        Internal (non-choice) ready events run first, in FIFO order;
        when only choice events remain, the chooser picks one.  The heap
        is consulted only once the ready tier is empty, so timers fire
        at quiescence regardless of their (time, seq) rank against
        same-instant ready entries — part of the check-mode contract
        (exploration and replay agree on it, so runs stay bit-identical).

        ``_ready`` is drained from the left and every live handle is
        classified exactly once: an internal event is returned at once,
        a choice event moves to ``_choices``.  Both containers are
        append-only in scheduling order and a handle only ever moves
        from the front of the first to the back of the second, so the
        candidates shown to ``choose()`` are in ready order.  A chooser
        that raises leaves every event queued.
        """
        ready = self._ready
        choices = self._choices
        chooser = self._chooser
        is_choice = chooser.is_choice
        while ready:
            handle = ready.popleft()
            if handle._cancelled:
                continue
            if not is_choice(handle):
                return handle
            choices.append(handle)
        candidates = [handle for handle in choices if not handle._cancelled]
        if len(candidates) != len(choices):
            choices[:] = candidates
        if not candidates:
            return self._pop_next()
        return choices.pop(chooser.choose(candidates))

    def step(self) -> bool:
        """Run the next scheduled event; return False if none remain."""
        if self._chooser is not None:
            handle = self._pop_next_chosen()
        else:
            handle = self._pop_next()
        if handle is None:
            return False
        self.events_processed += 1
        emit = self._step_probe.emit
        if emit is not None:
            emit(handle)
        handle._run()
        if handle._pooled:
            self._release_handle(handle)
        return True

    def _release_handle(self, handle: EventHandle) -> None:
        """Retire an executed pooled handle into the freelist.

        Clears the callback (and the argument slot's payload) so retired
        handles never pin protocol objects between reuses.
        """
        handle._callback = _noop_release
        args = handle._args
        if type(args) is list:
            args[0] = None
        else:
            handle._args = ()
        pool = self.pools.handles
        if len(pool) < MAX_POOL:
            pool.append(handle)

    def peek_time(self) -> float | None:
        """Virtual time of the next pending event, or None if idle."""
        ready = self._ready
        while ready and ready[0]._cancelled:
            ready.popleft()
        if ready:
            # Ready entries are always at the current instant, which no
            # live heap entry can precede.
            return ready[0].time
        for handle in self._choices:
            if not handle._cancelled:
                return handle.time
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._heap_cancelled -= 1
        return heap[0][0] if heap else None

    def _drive(
        self,
        future: Future,
        time_limit: float | None,
        max_events: int | None,
    ) -> str:
        """The event loop behind :meth:`run` and :meth:`run_until_complete`:
        run events until ``future`` completes, the queue drains or a
        budget trips, and return which (a ``_STOP_*`` constant) — the
        caller turns the reason into its own contract: return, advance
        the clock, or raise.

        This is the sweep engine's innermost loop, so everything an
        event costs is inlined: the two-tier peek (tombstone skim,
        ``(time, seq)`` merge), the budget checks — made against the
        *peeked* event, which stays queued when one trips — the pop, the
        callback and the pooled-handle release.  A delivery entry is
        told from a handle entry once, at the pop, and run as
        ``callback(arg)`` — the only place one is executed.
        :meth:`step` is the same for one event, spelled with method
        calls (docs/kernel.md has the measurement that kept it apart).

        The chooser is read per event.  With one installed the peek is
        :meth:`peek_time` and the pop :meth:`_pop_next_chosen`, which
        turns to the heap only at ready-quiescence (the check-mode
        contract; exploration rates dominate the two calls).
        """
        executed = 0
        ready = self._ready
        heap = self._heap
        clock = self._clock
        probe = self._step_probe
        heappop = heapq.heappop
        handle_pool = self.pools.handles
        # ``while True`` on purpose: CPython 3.11 specializes a function's
        # bytecode once its calls plus *unconditional* backward jumps
        # reach eight, and ``while <condition>`` jumps back conditionally
        # — this loop, entered once per run, would stay unspecialized
        # for a process's first seven runs.
        while True:
            if future._state is not _PENDING:
                return _STOP_FUTURE
            chooser = self._chooser
            # -- peek (skimming tombstones) --------------------------------
            if chooser is None:
                while ready and ready[0]._cancelled:
                    ready.popleft()
                while heap and len(heap[0]) == 3 and heap[0][2]._cancelled:
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
                    # Ready events sit at the current instant; a heap entry
                    # can only precede them when it was scheduled for this
                    # same instant earlier (lower seq) — merge by (time, seq).
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
                    return _STOP_DRAINED
            else:
                next_time = self.peek_time()
                if next_time is None:
                    return _STOP_DRAINED
                from_heap = False  # the chooser-mode pop decides
            # -- budgets (checked before the event is dequeued) ------------
            if time_limit is not None and next_time > time_limit:
                return _STOP_TIME
            if max_events is not None and executed >= max_events:
                return _STOP_EVENTS
            # -- pop + run -------------------------------------------------
            if from_heap:
                entry = heappop(heap)
                if next_time != clock._now:
                    clock._now = next_time  # monotone by heap order
                if len(entry) == 4:
                    # A delivery entry runs straight from the tuple: no
                    # handle to arm, call through or retire.  A sink
                    # still sees one, built for it and dropped.
                    self.events_processed += 1
                    executed += 1
                    emit = probe.emit
                    if emit is not None:
                        emit(_detach(entry))
                    entry[3](entry[2])
                    continue
                handle = entry[2]
                handle._loop = None
            elif chooser is None:
                handle = ready.popleft()
            else:
                handle = self._pop_next_chosen()
            self.events_processed += 1
            executed += 1
            emit = probe.emit
            if emit is not None:
                emit(handle)
            handle._run()
            if handle._pooled:
                # Retire into the freelist, clearing the callback (and
                # the argument slot's payload) so retired handles never
                # pin protocol objects between reuses.
                handle._callback = _noop_release
                args = handle._args
                if type(args) is list:
                    args[0] = None
                else:
                    handle._args = ()
                if len(handle_pool) < MAX_POOL:
                    handle_pool.append(handle)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events until the queue drains.

        ``until`` bounds virtual time (events after it stay queued and the
        clock advances to ``until``); ``max_events`` bounds the number of
        events executed and raises :class:`DeadlineExceeded` when hit.
        """
        stop = self._drive(_NEVER, until, max_events)
        if stop is _STOP_EVENTS:
            raise DeadlineExceeded(
                f"run() exceeded max_events={max_events} at t={self.now}"
            )
        if stop is _STOP_TIME or (until is not None and until > self._clock._now):
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
        """
        stop = self._drive(future, max_time, max_events)
        if stop is _STOP_DRAINED:
            raise DeadlockError(
                f"event queue drained at t={self.now} while waiting for "
                f"{future!r}"
            )
        if stop is _STOP_TIME:
            raise DeadlineExceeded(
                f"virtual deadline {max_time} reached while waiting for "
                f"{future!r}"
            )
        if stop is _STOP_EVENTS:
            raise DeadlineExceeded(
                f"event budget {max_events} exhausted while waiting for "
                f"{future!r}"
            )
        return future.result()

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events."""
        return (
            sum(1 for handle in self._ready if not handle._cancelled)
            + sum(1 for handle in self._choices if not handle._cancelled)
            + sum(1 for entry in self._heap if _live(entry))
        )

    def _scheduled(self) -> Iterator[tuple[float, Callable[..., Any], Any]]:
        """``(time, callback, args)`` of every live heap entry, in heap
        (not execution) order — for the checker's fingerprint, so the
        entry shapes stay this module's business."""
        for entry in self._heap:
            if len(entry) == 4:
                yield entry[0], entry[3], (entry[2],)
            elif not entry[2]._cancelled:
                yield entry[0], entry[2]._callback, entry[2]._args

    def __repr__(self) -> str:
        return f"Simulator(now={self.now}, pending={self.pending_events})"


def _live(entry: tuple) -> bool:
    """Whether a heap entry will run: a delivery entry always does."""
    return len(entry) == 4 or not entry[2]._cancelled


def _detach(entry: tuple) -> EventHandle:
    """The handle for an entry just popped off the heap.

    A delivery entry has none, so whoever needs one — ``step()`` through
    ``_pop_next``, a ``sim.step`` sink — gets a throw-away handle that
    reads like the pooled one it replaced (``_callback``, ``_args[0]``).
    """
    if len(entry) == 4:
        time, seq, arg, callback = entry
        return EventHandle(time, seq, callback, (arg,))
    handle = entry[2]
    handle._loop = None
    return handle


def _resolve_sleep(fut: Future) -> None:
    if not fut.done():
        fut.set_result(None)


def _noop_release(*_args: Any) -> None:
    """Placeholder callback installed on retired pooled handles."""
