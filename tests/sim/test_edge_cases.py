"""Edge-case tests for the simulation kernel."""

import pytest

from repro.errors import CancelledError, SimulationError
from repro.sim import EventHandle, Future, Simulator, gather


class TestHandleEdgeCases:
    def test_double_cancel_is_harmless(self):
        sim = Simulator()
        handle = sim.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_releases_callback_reference(self):
        big = object()
        handle = EventHandle(1.0, 0, lambda x=big: None)
        handle.cancel()
        assert handle._args == ()

    def test_handle_ordering(self):
        # (time, seq) order is the scheduler's, not the class's: heap
        # entries are (time, seq, handle) tuples with unique seq, so
        # handles themselves never compare.
        sim = Simulator()
        order = []
        a = sim.call_at(1.0, order.append, "a")
        b = sim.call_at(1.0, order.append, "b")
        c = sim.call_at(0.5, order.append, "c")
        assert (a.seq, b.seq, c.seq) == (0, 1, 2)
        sim.run()
        assert order == ["c", "a", "b"]
        with pytest.raises(TypeError):
            a < b

    def test_repr_states(self):
        handle = EventHandle(1.0, 0, lambda: None)
        assert "pending" in repr(handle)
        handle.cancel()
        assert "cancelled" in repr(handle)


class TestTaskEdgeCases:
    def test_cancel_finished_task_returns_false(self):
        sim = Simulator()

        async def quick():
            return 1

        task = sim.create_task(quick())
        sim.run_until_complete(task)
        assert task.cancel() is False

    def test_task_swallowing_cancellation_completes_normally(self):
        sim = Simulator()
        fut = Future()

        async def stubborn():
            try:
                await fut
            except CancelledError:
                return "survived"

        task = sim.create_task(stubborn())
        sim.call_at(1.0, task.cancel)
        assert sim.run_until_complete(task) == "survived"

    def test_nested_cancellation_propagates(self):
        sim = Simulator()
        inner_fut = Future()

        async def inner():
            await inner_fut

        async def outer():
            await sim.create_task(inner())

        task = sim.create_task(outer())
        sim.call_at(1.0, task.cancel)
        sim.run()
        assert task.cancelled()

    def test_gather_of_gathers(self):
        sim = Simulator()

        async def value(v, d):
            await sim.sleep(d)
            return v

        inner1 = gather(sim, [sim.create_task(value(1, 1.0)),
                              sim.create_task(value(2, 2.0))])
        inner2 = gather(sim, [sim.create_task(value(3, 0.5))])
        outer = gather(sim, [inner1, inner2])
        assert sim.run_until_complete(outer) == [[1, 2], [3]]

    def test_exception_in_immediate_coroutine(self):
        sim = Simulator()

        async def boom():
            raise KeyError("now")

        task = sim.create_task(boom())
        with pytest.raises(KeyError):
            sim.run_until_complete(task)


class TestClockEdgeCases:
    def test_zero_delay_sleep(self):
        sim = Simulator()
        fut = sim.sleep(0.0)
        sim.run_until_complete(fut)
        assert sim.now == 0.0

    def test_interleaved_run_calls(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, "a")
        sim.call_at(3.0, seen.append, "b")
        sim.run(until=2.0)
        sim.call_at(2.5, seen.append, "mid")
        sim.run()
        assert seen == ["a", "mid", "b"]

    def test_event_scheduled_during_run_at_same_instant(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_soon(lambda: order.append("nested"))

        sim.call_at(1.0, first)
        sim.call_at(1.0, order.append, "second")
        sim.run()
        # Nested call_soon lands after already-queued same-time events.
        assert order == ["first", "second", "nested"]
