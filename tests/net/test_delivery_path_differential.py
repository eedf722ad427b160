"""The batched, straight-to-handler delivery path against the one it
replaced (``reference_delivery_path``), over whole consensus runs.

Production: ``Network._deliver`` calls the handler from the process's
tag table and counts the delivery itself; a ``MisbehavingProcess``
broadcast filters every destination first and sends the survivors as
one ``Network.fan_out``; a raw Byzantine broadcast is one
``Network.broadcast``.  Reference: one ``_on_message`` frame per
delivery, one filter call plus one ``Network.send`` per destination.
Every adversary kind × timing class × FIFO must give the same run: the
same ``(time, seq, events_processed, uid-or-label)`` for every event,
counters, channel RNG states, decisions, delivery counts and
message-pool accounting.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.behaviors import MisbehavingProcess, RawByzantine
from repro.adversary.strategies import AdversarySpec, place_adversaries
from repro.errors import DeadlineExceeded, DeadlockError
from repro.instrumentation import NET_DELIVER, SIM_STEP
from repro.net import Network
from repro.orchestration import runner
from repro.orchestration.axes import adversary_from_name, topology_from_name
from repro.orchestration.config import RunConfig
from repro.profiling import _event_label
from repro.runtime.process import Process
from tests.net import reference_delivery_path as reference

PRODUCTION = {
    "Network": Network,
    "Process": Process,
    "MisbehavingProcess": MisbehavingProcess,
    "RawByzantine": RawByzantine,
}
ORACLE = {
    "Network": reference.ReferenceNetwork,
    "Process": reference.ReferenceProcess,
    "MisbehavingProcess": reference.ReferenceMisbehavingProcess,
    "RawByzantine": reference.ReferenceRawByzantine,
}

#: Every adversary kind the runner deploys, plus the ``crash_time``
#: composition (a protocol-running filter chained with a crash).
ADVERSARIES = {
    "crash": adversary_from_name("crash"),
    "noise": adversary_from_name("noise:0.3"),
    "two_faced": adversary_from_name("two_faced:evil"),
    "flip_flop": adversary_from_name("flip_flop"),
    "mute_coord": adversary_from_name("mute_coord"),
    "collude": adversary_from_name("collude:evil"),
    "crash_at": adversary_from_name("crash_at:4.0"),
    "two_faced+crash_time": AdversarySpec(
        kind="two_faced", params={"fake_value": "evil", "crash_time": 6.0}
    ),
    "spam_decide": adversary_from_name("spam_decide:evil"),
    "bot_relays": adversary_from_name("bot_relays:40"),
}
TOPOLOGIES = ("minimal", "timely", "async")


def make_config(kind, topology, fifo, n, t, faults, seed):
    adversary = ADVERSARIES[kind]
    byzantine = place_adversaries("tail", n, faults)
    correct = [pid for pid in range(1, n + 1) if pid not in byzantine]
    return RunConfig(
        n=n,
        t=t,
        proposals={pid: ("a", "b")[pid % 2] for pid in correct},
        adversaries={pid: adversary for pid in byzantine},
        topology=topology_from_name(topology, n),
        seed=seed,
        fifo=fifo,
        max_time=400.0,
        max_events=40_000,
    )


def delivered(actor):
    if isinstance(actor, RawByzantine):
        return actor.received
    return actor.delivered_count


def execute(config, classes, watch_steps=True):
    """One run on ``classes``; everything the two paths must agree on."""
    actors = []

    def recording(cls):
        def build(*args, **kwargs):
            actor = cls(*args, **kwargs)
            actors.append(actor)
            return actor
        return build

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Network", classes["Network"])
        for name in ("Process", "MisbehavingProcess", "RawByzantine"):
            patch.setattr(runner, name, recording(classes[name]))
        frame = runner.build_runtime(config)
    sim, network = frame.sim, frame.network
    deliver_cb = network._deliver_cb
    steps = []

    def on_step(handle):
        message = handle._args[0] if handle._args else None
        what = (message.uid, message.dest) if handle._callback is deliver_cb else None
        steps.append((handle.time, handle.seq, sim.events_processed,
                      _event_label(handle), what))

    if watch_steps:
        sim.bus.probe(SIM_STEP).attach(on_step)
    try:
        sim.run_until_complete(
            frame.all_decided, max_time=config.max_time, max_events=config.max_events
        )
    except (DeadlineExceeded, DeadlockError):
        sim._close_unstarted_tasks()
    pools = network.pools
    return {
        "steps": steps,
        "clock": (sim.now, sim.events_processed, sim._next_seq),
        "sent": (network.messages_sent, dict(network.sent_by_tag), network._next_uid),
        "channels": {
            pair: (channel._last_delivery, channel.rng.getstate())
            for pair, channel in sorted(network._channels.items())
        },
        "decisions": {
            pid: consensus.decision.result()
            for pid, consensus in sorted(frame.consensi.items())
            if consensus.decision.done() and not consensus.decision.cancelled()
        },
        "rounds": {
            pid: consensus.rounds_executed
            for pid, consensus in sorted(frame.consensi.items())
        },
        "delivered": sorted((actor.pid, delivered(actor)) for actor in actors),
        "pools": (pools.messages_created, pools.messages_reused,
                  len(network._msg_pool)),
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(sorted(ADVERSARIES)),
    topology=st.sampled_from(TOPOLOGIES),
    fifo=st.booleans(),
    size=st.sampled_from([(4, 1), (7, 2)]),
    all_faults=st.booleans(),
    seed=st.integers(0, 2**16),
    watch_steps=st.booleans(),
)
def test_every_adversary_runs_identically_on_both_paths(
    kind, topology, fifo, size, all_faults, seed, watch_steps
):
    n, t = size
    config = make_config(kind, topology, fifo, n, t, t if all_faults else 1, seed)
    got = execute(config, PRODUCTION, watch_steps)
    want = execute(config, ORACLE, watch_steps)
    assert got == want
    # The network-side count is every delivery, each counted once.
    deliveries = sum(count for _pid, count in got["delivered"])
    if watch_steps:
        assert deliveries == sum(what is not None for *_rest, what in got["steps"])
    assert deliveries <= got["sent"][0]


@pytest.mark.parametrize("kind", ["two_faced", "bot_relays", "noise"])
def test_sinks_attached_mid_run_see_every_delivery(kind):
    """A ``net.deliver`` and a ``sim.step`` sink attached after the run
    started see every later delivery, labelled ``tag:<TAG>``, exactly as
    on the reference path."""
    config = make_config(kind, "minimal", False, 7, 2, 2, seed=5)
    views = {}
    for side, classes in (("production", PRODUCTION), ("oracle", ORACLE)):
        with pytest.MonkeyPatch.context() as patch:
            for name, cls in classes.items():
                patch.setattr(runner, name, cls)
            frame = runner.build_runtime(config)
        sim, network = frame.sim, frame.network
        for _ in range(300):
            sim.step()
        deliveries, labels = [], []
        sim.bus.probe(NET_DELIVER).attach(
            lambda message, now: deliveries.append(
                (now, message.uid, message.sender, message.dest, message.tag,
                 message.payload)
            )
        )
        sim.bus.probe(SIM_STEP).attach(
            lambda handle: labels.append(
                _event_label(handle) if handle._callback is network._deliver_cb
                else None
            )
        )
        try:
            sim.run_until_complete(frame.all_decided, max_events=config.max_events)
        except (DeadlineExceeded, DeadlockError):
            sim._close_unstarted_tasks()
        labels = [label for label in labels if label is not None]
        assert len(labels) == len(deliveries) > 100
        assert labels == [f"tag:{tag}" for _now, _uid, _src, _dst, tag, _p in deliveries]
        views[side] = (deliveries, labels, sim.events_processed)
    assert views["production"] == views["oracle"]
