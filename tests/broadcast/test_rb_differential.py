"""Differential test: the record-per-instance RB engine against the
set-based reference it replaced (``reference_rb.py``).

Both engines sit on a recording process stub and are fed the same
message sequence — honest floods in a random order, mixed with
Byzantine traffic: duplicates, equivocating INIT/ECHO/READY, READY for
a second value after delivery, INIT arriving after delivery.  The send
sequences and the ``(origin, key, value)`` delivery sequences must be
identical, message for message.
"""

from hypothesis import given, settings, strategies as st

from repro.broadcast import ReliableBroadcast
from repro.net.messages import Message
from tests.broadcast.reference_rb import ReferenceReliableBroadcast

INIT, ECHO, READY = (
    ReliableBroadcast.INIT, ReliableBroadcast.ECHO, ReliableBroadcast.READY
)
ME = 1


class RecordingProcess:
    """The slice of ``Process`` an RB engine uses, recording its sends."""

    def __init__(self):
        self.pid = ME
        self.handlers = {}
        self.sent = []
        self.notified = 0

    def register_handler(self, tag, handler, wakes=True):
        self.handlers[tag] = handler

    def broadcast(self, tag, payload):
        self.sent.append((tag, payload))

    def notify(self):
        self.notified += 1


def drive(engine_cls, n, t, events):
    """Feed ``events`` — ``(tag, sender, origin, key, value)`` — to a fresh
    engine; return its sends, its deliveries and the engine."""
    process = RecordingProcess()
    engine = engine_cls(process, n, t)
    deliveries = []
    engine.subscribe_all(lambda origin, key, value: deliveries.append(
        (origin, key, value, len(process.sent))))
    for tag, sender, origin, key, value in events:
        payload = (key, value) if tag == INIT else (origin, key, value)
        process.handlers[tag](Message(sender, ME, tag, payload))
    return process, deliveries, engine


def assert_same(n, t, events):
    new, new_deliveries, new_engine = drive(ReliableBroadcast, n, t, events)
    ref, ref_deliveries, ref_engine = drive(
        ReferenceReliableBroadcast, n, t, events)
    assert new.sent == ref.sent
    # Each delivery carries how many sends preceded it, so the
    # interleaving of sends and deliveries is compared too.
    assert new_deliveries == ref_deliveries
    assert new_engine.delivered == ref_engine.delivered
    # The wake contract: one recheck per delivery, none otherwise.
    assert new.notified == len(new_deliveries)
    return new, new_deliveries


def honest_flood(n, origin, key, value):
    """Everything a correct process receives for one honest instance."""
    return (
        [(INIT, origin, origin, key, value)]
        + [(ECHO, sender, origin, key, value) for sender in range(1, n + 1)]
        + [(READY, sender, origin, key, value) for sender in range(1, n + 1)]
    )


@st.composite
def traffic(draw):
    t = draw(st.integers(0, 3))
    n = draw(st.integers(max(2, 3 * t + 1), 3 * t + 4))
    pids = st.integers(1, n)
    keys = st.sampled_from(["k0", "k1"])
    values = st.sampled_from(["a", "b"])
    events = []
    for origin, key, value in draw(st.lists(
            st.tuples(pids, keys, values), max_size=3)):
        events += honest_flood(n, origin, key, value)
    # Byzantine extras: any tag from any sender about any instance with
    # any value — duplicates and equivocation arise by collision.
    events += draw(st.lists(
        st.tuples(st.sampled_from([INIT, ECHO, READY]), pids, pids, keys, values),
        max_size=4 * n,
    ))
    events = [
        (tag, sender, sender if tag == INIT else origin, key, value)
        for tag, sender, origin, key, value in events
    ]
    return n, t, draw(st.permutations(events))


@settings(max_examples=300, deadline=None)
@given(traffic())
def test_same_sends_and_deliveries_as_the_set_based_engine(case):
    n, t, events = case
    assert_same(n, t, events)


def test_honest_flood_delivers_once_with_one_echo_and_one_ready():
    process, deliveries = assert_same(4, 1, honest_flood(4, 2, "k", "v"))
    assert [tag for tag, _ in process.sent] == [ECHO, READY]
    assert [d[:3] for d in deliveries] == [(2, "k", "v")]


def test_ready_for_a_second_value_after_delivery_is_dead():
    events = honest_flood(4, 2, "k", "v")
    events += [(READY, sender, 2, "k", "w") for sender in (1, 2, 3, 4)]
    events += [(ECHO, sender, 2, "k", "w") for sender in (1, 2, 3, 4)]
    process, deliveries = assert_same(4, 1, events)
    assert len(process.sent) == 2 and len(deliveries) == 1


def test_init_arriving_after_delivery_is_still_echoed_once():
    flood = honest_flood(4, 2, "k", "v")
    late_init, rest = flood[0], flood[1:]
    process, deliveries = assert_same(4, 1, rest + [late_init, late_init])
    assert [d[:3] for d in deliveries] == [(2, "k", "v")]
    # READY went out on the echo quorum, the ECHO only after delivery.
    assert [tag for tag, _ in process.sent] == [READY, ECHO]


def test_equivocating_origin_gets_one_echo_and_one_value():
    events = [(INIT, 3, 3, "k", "a"), (INIT, 3, 3, "k", "b")]
    events += [(ECHO, s, 3, "k", "a") for s in (1, 2)]
    events += [(ECHO, s, 3, "k", "b") for s in (3, 4, 1, 2)]  # 1, 2 repeat
    events += [(READY, s, 3, "k", "b") for s in (3, 4)]        # amplifies
    events += [(READY, s, 3, "k", "a") for s in (1, 2, 3, 4)]  # 3, 4 repeat
    events += [(READY, 1, 3, "k", "b")]                        # repeat: ignored
    process, deliveries = assert_same(4, 1, events)
    assert process.sent == [(ECHO, (3, "k", "a")), (READY, (3, "k", "b"))]
    assert deliveries == []
