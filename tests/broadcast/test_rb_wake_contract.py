"""The wake-up contract between reliable broadcast and ``wait_until``.

RB's three handlers are registered as non-waking: a ``wait`` predicate
is re-evaluated when RB *delivers* (and by waking handlers, timers and
``notify()``), not once per RB_INIT / RB_ECHO / RB_READY.  Futures must
still resolve at exactly the event and virtual instant they did when
every message rechecked every predicate.
"""

from repro.net import fully_asynchronous
from tests.helpers import build_system


def counting(predicate):
    """``predicate`` plus the list of its evaluations' return values."""
    calls = []

    def counted():
        calls.append(predicate())
        return calls[-1]

    return counted, calls


class TestPredicateWakeUps:
    def test_quorum_wait_resolves_where_it_always_did(self):
        # Pinned on the engine that rechecked after every message (89
        # evaluations): event 591 of 735, t = 16.0968..., origins in
        # delivery order.  Now: one evaluation at registration plus one
        # per delivery — an RB message that delivers nothing runs none.
        system = build_system(7, 2, topology=fully_asynchronous(7), seed=5)
        sim, rb = system.sim, system.rbs[3]
        deliveries = []
        rb.subscribe_all(lambda origin, key, value: deliveries.append(origin))
        quorum, calls = counting(
            lambda: len(rb.delivered_from("k")) >= 5 and dict(rb.delivered_from("k"))
        )
        resolved = []
        system.processes[3].wait_until(quorum).add_done_callback(
            lambda fut: resolved.append(
                (sim.events_processed, sim.now, list(fut.result()), len(deliveries))
            )
        )
        for pid, engine in system.rbs.items():
            engine.broadcast("k", f"v{pid}")
        system.settle()
        assert resolved == [(591, 16.096811975551155, [3, 7, 1, 6, 2], 5)]
        assert len(calls) == 1 + 5
        assert sim.events_processed == 735
        assert system.processes[3].delivered_count == 105

    def test_messages_after_delivery_are_dead(self):
        system = build_system(4, 1, byzantine=(4,))
        byz = system.byzantine[4]
        system.rbs[1].broadcast("k", "honest")
        system.settle()
        deliveries = []
        for rb in system.rbs.values():
            assert rb.delivered_value(1, "k") == "honest"
            rb.subscribe_all(lambda *delivery: deliveries.append(delivery))
        never, calls = counting(lambda: False)
        for process in system.processes.values():
            process.wait_until(never)
        sent = dict(system.network.sent_by_tag)
        for value in ("honest", "flip"):
            byz.broadcast_raw("RB_ECHO", (1, "k", value))
            byz.broadcast_raw("RB_READY", (1, "k", value))
        system.settle()
        # No send, no delivery, no predicate evaluation beyond the one
        # ``wait_until`` makes at registration.
        sent["RB_ECHO"] += 8
        sent["RB_READY"] += 8
        assert system.network.sent_by_tag == sent
        assert deliveries == []
        assert len(calls) == len(system.processes)

    def test_late_init_is_echoed_but_wakes_nobody(self):
        system = build_system(4, 1, byzantine=(4,))
        byz = system.byzantine[4]
        # p1 delivers (4, "k") without ever seeing its INIT.
        for sender in (1, 2, 3):
            system.network.send(sender, 1, "RB_READY", (4, "k", "v"))
        system.settle()
        assert system.rbs[1].delivered_value(4, "k") == "v"
        never, calls = counting(lambda: False)
        system.processes[1].wait_until(never)
        echoes = system.network.sent_by_tag.get("RB_ECHO", 0)
        byz.send_raw(1, "RB_INIT", ("k", "v"))
        byz.send_raw(1, "RB_INIT", ("k", "w"))
        system.settle()
        assert system.network.sent_by_tag["RB_ECHO"] == echoes + system.n
        assert len(calls) == 1


class TestSilencedProcess:
    def test_clearing_the_handler_table_silences_rb_too(self):
        system = build_system(4, 1)
        victim = system.processes[2]
        victim._handlers.clear()
        never, calls = counting(lambda: False)
        victim.wait_until(never)
        system.rbs[1].broadcast("k", "v")
        system.settle()
        assert victim.delivered_count > 0
        assert system.rbs[2].delivered == {}
        assert len(calls) == 1
        # The victim echoed and readied nothing: three of each, not four.
        assert system.network.sent_by_tag == {
            "RB_INIT": 4, "RB_ECHO": 12, "RB_READY": 12
        }
        for pid in (1, 3, 4):
            assert system.rbs[pid].delivered_value(1, "k") == "v"
