"""Unit tests for the process runtime."""

import pytest

from repro.errors import ConfigurationError
from tests.helpers import build_system


class TestHandlers:
    def test_handler_dispatch_by_tag(self):
        system = build_system(3, 0, rb=False)
        got = []
        system.processes[2].register_handler("PING", lambda m: got.append(m.payload))
        system.processes[1].send(2, "PING", "hello")
        system.processes[1].send(2, "OTHER", "ignored")
        system.settle()
        assert got == ["hello"]

    def test_double_handler_registration_rejected(self):
        system = build_system(3, 0, rb=False)
        system.processes[1].register_handler("T", lambda m: None)
        with pytest.raises(ConfigurationError):
            system.processes[1].register_handler("T", lambda m: None)

    def test_unhandled_tags_are_dropped_quietly(self):
        system = build_system(3, 0, rb=False)
        system.processes[1].send(2, "NOBODY_LISTENS", None)
        system.settle()
        assert system.processes[2].delivered_count == 1

    def test_delivered_count(self):
        system = build_system(3, 0, rb=False)
        system.processes[1].broadcast("X", None)
        system.settle()
        for pid in (1, 2, 3):
            assert system.processes[pid].delivered_count == 1


class TestWaitUntil:
    def test_wait_fires_when_message_changes_state(self):
        system = build_system(3, 0, rb=False)
        inbox = []
        system.processes[2].register_handler("N", lambda m: inbox.append(m.payload))

        async def waiter():
            return await system.processes[2].wait_until(
                lambda: len(inbox) >= 2 and tuple(inbox)
            )

        task = system.processes[2].create_task(waiter())
        system.processes[1].send(2, "N", "a")
        system.processes[3].send(2, "N", "b")
        assert set(system.run(task)) == {"a", "b"}

    def test_notify_rechecks_predicates(self):
        system = build_system(3, 0, rb=False)
        flag = {"set": False}

        async def waiter():
            await system.processes[1].wait_until(lambda: flag["set"])
            return "woke"

        task = system.processes[1].create_task(waiter())

        def flip():
            flag["set"] = True
            system.processes[1].notify()

        system.sim.call_at(5.0, flip)
        assert system.run(task) == "woke"
        assert system.sim.now == 5.0

    def test_non_waking_handler_wakes_only_through_notify(self):
        system = build_system(3, 0, rb=False)
        process = system.processes[2]
        inbox = []

        def quiet(message):
            inbox.append(message.payload)
            if message.payload == "wake":
                process.notify()

        process.register_handler("Q", quiet, wakes=False)
        evaluations = []

        def predicate():
            evaluations.append(len(inbox))
            return "wake" in inbox

        fut = process.wait_until(predicate)
        system.processes[1].send(2, "Q", "a")
        system.processes[1].send(2, "UNHANDLED", "b")
        system.settle()
        assert inbox == ["a"] and not fut.done()
        assert evaluations == [0]  # registration only
        system.processes[3].send(2, "Q", "wake")
        system.settle()
        assert fut.done() and evaluations == [0, 2]


class TestCommunication:
    def test_send_stamps_own_pid(self):
        system = build_system(3, 0, rb=False)
        seen = []
        system.processes[2].register_handler("T", lambda m: seen.append(m.sender))
        system.processes[3].send(2, "T", None)
        system.settle()
        assert seen == [3]

    def test_broadcast_includes_self(self):
        system = build_system(3, 0, rb=False)
        seen = []
        system.processes[1].register_handler("B", lambda m: seen.append(m.sender))
        system.processes[1].broadcast("B", None)
        system.settle()
        assert seen == [1]


class TestTasks:
    def test_cancel_tasks(self):
        system = build_system(3, 0, rb=False)

        async def forever():
            await system.processes[1].wait_until(lambda: False)

        task = system.processes[1].create_task(forever())
        system.processes[1].cancel_tasks()
        system.settle()
        assert task.cancelled()
