"""Unit tests for SimEvent and ConditionVar."""

from repro.sim import ConditionVar, SimEvent, Simulator


class TestSimEvent:
    def test_wait_after_set_resolves_immediately(self):
        event = SimEvent()
        event.set()
        assert event.wait().done()

    def test_wait_before_set_blocks(self):
        event = SimEvent()
        fut = event.wait()
        assert not fut.done()
        event.set()
        assert fut.done()

    def test_multiple_waiters_all_wake(self):
        event = SimEvent()
        futs = [event.wait() for _ in range(3)]
        event.set()
        assert all(f.done() for f in futs)

    def test_clear_resets(self):
        event = SimEvent()
        event.set()
        event.clear()
        assert not event.is_set()
        assert not event.wait().done()

    def test_set_twice_harmless(self):
        event = SimEvent()
        event.set()
        event.set()
        assert event.is_set()

    def test_cancelled_waiter_ignored(self):
        event = SimEvent()
        fut = event.wait()
        fut.cancel()
        event.set()  # must not raise on the cancelled waiter
        assert event.is_set()


class TestConditionVar:
    def test_true_predicate_resolves_immediately(self):
        cond = ConditionVar()
        fut = cond.wait_until(lambda: "witness")
        assert fut.done()
        assert fut.result() == "witness"

    def test_false_predicate_blocks_until_recheck(self):
        cond = ConditionVar()
        state = {"ready": False}
        fut = cond.wait_until(lambda: state["ready"] and "go")
        assert not fut.done()
        cond.recheck()
        assert not fut.done()
        state["ready"] = True
        assert cond.recheck() == 1
        assert fut.result() == "go"

    def test_resolution_value_is_predicate_value(self):
        cond = ConditionVar()
        items: list[int] = []
        fut = cond.wait_until(lambda: tuple(items) if len(items) >= 2 else None)
        items.append(1)
        cond.recheck()
        items.append(2)
        cond.recheck()
        assert fut.result() == (1, 2)

    def test_multiple_waiters_fire_independently(self):
        cond = ConditionVar()
        state = {"x": 0}
        fut_low = cond.wait_until(lambda: state["x"] >= 1)
        fut_high = cond.wait_until(lambda: state["x"] >= 5)
        state["x"] = 2
        cond.recheck()
        assert fut_low.done() and not fut_high.done()
        state["x"] = 5
        cond.recheck()
        assert fut_high.done()

    def test_cancelled_waiter_dropped(self):
        cond = ConditionVar()
        fut = cond.wait_until(lambda: False)
        fut.cancel()
        assert cond.recheck() == 0
        assert cond.waiting == 0

    def test_waiting_count(self):
        cond = ConditionVar()
        cond.wait_until(lambda: False)
        cond.wait_until(lambda: False)
        assert cond.waiting == 2

    def test_integration_with_tasks(self):
        sim = Simulator()
        cond = ConditionVar()
        state = {"n": 0}

        async def waiter():
            return await cond.wait_until(lambda: state["n"] >= 3 and state["n"])

        def bump():
            state["n"] += 1
            cond.recheck()

        task = sim.create_task(waiter())
        for delay in (1.0, 2.0, 3.0):
            sim.call_at(delay, bump)
        assert sim.run_until_complete(task) == 3
        assert sim.now == 3.0

    def test_wait_registered_after_a_nested_recheck_is_kept(self):
        # Firing a waiter runs its done-callbacks synchronously — for a
        # task, the coroutine's next step.  That step may re-enter
        # ``recheck`` (a ``notify()``) and then ``wait_until`` again; the
        # outer pass used to overwrite the list the new waiter landed on.
        cond = ConditionVar()
        state = {"first": False, "second": False}
        later = []

        def step(_fut):
            cond.recheck()  # e.g. CB ``_add_valid`` -> ``notify()``
            later.append(cond.wait_until(lambda: state["second"]))

        cond.wait_until(lambda: state["first"]).add_done_callback(step)
        state["first"] = True
        assert cond.recheck() == 1
        assert cond.waiting == 1
        state["second"] = True
        assert cond.recheck() == 1
        assert later[0].done()

    def test_nested_recheck_sees_survivors_of_the_outer_pass(self):
        # A waiter the outer pass already found false must be visible to
        # a recheck nested in a later waiter's wake-up, which may follow
        # the very state change that makes it true.
        cond = ConditionVar()
        state = {"go": False, "late": False}
        survivor = cond.wait_until(lambda: state["late"])

        def step(_fut):
            state["late"] = True
            cond.recheck()

        cond.wait_until(lambda: state["go"]).add_done_callback(step)
        state["go"] = True
        assert cond.recheck() == 1  # the nested pass fired the other one
        assert survivor.done()
        assert cond.waiting == 0

    def test_coroutine_rewaiting_inside_a_nested_recheck_is_woken(self):
        sim = Simulator()
        cond = ConditionVar()
        state = {"n": 0}

        async def waiter():
            await cond.wait_until(lambda: state["n"] >= 1)
            cond.recheck()
            return await cond.wait_until(lambda: state["n"] >= 2 and "woken")

        def bump():
            state["n"] += 1
            cond.recheck()

        task = sim.create_task(waiter())
        sim.call_at(1.0, bump)
        sim.call_at(2.0, bump)
        assert sim.run_until_complete(task) == "woken"
