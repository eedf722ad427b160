"""Build, execute and post-process one consensus run.

:func:`run_consensus` is the library's front door: it assembles the
simulator, network, correct processes, adversaries and protocol stacks
from a :class:`~repro.orchestration.config.RunConfig`, drives the run to
completion (or to its budget), re-checks the safety invariants, and
returns a :class:`ConsensusRunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..adversary.behaviors import MisbehavingProcess, RawByzantine
from ..adversary.strategies import (
    AdversarySpec,
    compose_filters,
    crash_at_filter,
    flip_flop_filter,
    honest_filter,
    mute_coordinator_filter,
    two_faced_filter,
)
from ..analysis.invariants import InvariantReport, verify_consensus_run
from ..baselines.randomized import CommonCoin, RandomizedBinaryConsensus
from ..broadcast.reliable import ReliableBroadcast
from ..core.consensus import Consensus
from ..core.consensus_variant import BotConsensus
from ..core.eventual_agreement import default_timeout
from ..core.values import BOT
from ..errors import ConfigurationError, DeadlineExceeded, DeadlockError
from ..net.network import Network
from ..net.timing import Instant
from ..net.topology import Topology, instant_topology, single_bisource
from ..runtime.process import Process
from ..sim.loop import Simulator
from ..sim.random import RngRegistry, derive_seed
from ..sim.tasks import Task, gather
from .config import RunConfig
from .kernel import KernelContext

__all__ = [
    "ConsensusRunResult",
    "RuntimeFrame",
    "build_runtime",
    "run_consensus",
    "run_randomized",
]


@dataclass
class ConsensusRunResult:
    """Everything observable about one finished (or timed-out) run."""

    config: RunConfig
    #: Decisions of correct processes that decided (pid -> value).
    decisions: dict[int, Any]
    #: Virtual time of each decision (pid -> time).
    decision_times: dict[int, float]
    #: Rounds entered per correct process (pid -> count).
    rounds: dict[int, int]
    #: Whether the run hit its time/event budget before all decided.
    timed_out: bool
    #: Total messages sent on the network.
    messages_sent: int
    #: Message counts by tag.
    sent_by_tag: dict[str, int]
    #: Simulator events executed.
    events_processed: int
    #: Virtual time when the run stopped.
    finished_at: float
    #: Post-hoc safety report.
    invariants: InvariantReport
    #: Per-process protocol objects, for deeper inspection.
    consensi: dict[int, Any] = field(repr=False, default_factory=dict)
    network: Network | None = field(repr=False, default=None)
    #: Full structured event trace (only when ``config.trace`` is set).
    trace: Any = field(repr=False, default=None)

    @property
    def all_decided(self) -> bool:
        """Whether every correct process decided."""
        return set(self.decisions) == set(self.config.proposals)

    @property
    def decided_value(self) -> Any:
        """The common decided value (requires at least one decision)."""
        if not self.decisions:
            raise ConfigurationError("no process decided")
        return next(iter(self.decisions.values()))

    @property
    def max_round(self) -> int:
        """Largest round any correct process entered."""
        return max(self.rounds.values(), default=0)


def default_topology(config: RunConfig) -> Topology:
    """The minimal single-bisource topology for this configuration."""
    bisource = min(config.correct)
    return single_bisource(
        config.n,
        config.t,
        bisource=bisource,
        correct=config.correct,
        tau=0.0,
        delta=1.0,
        k=config.k,
    )


def _deploy_adversary(
    pid: int,
    spec: AdversarySpec,
    sim: Simulator,
    network: Network,
    rng: RngRegistry,
) -> Process | None:
    """Install one Byzantine actor; returns its process if it runs the
    protocol, else None."""
    if spec.kind == "crash":
        RawByzantine(pid, sim, network, rng.stream("adv", pid))
        return None
    if spec.kind == "noise":
        RawByzantine(
            pid,
            sim,
            network,
            rng.stream("adv", pid),
            noise_probability=spec.params.get("noise_probability", 0.5),
        )
        return None
    if spec.kind == "spam_decide":
        actor = RawByzantine(pid, sim, network, rng.stream("adv", pid))
        fake = spec.params["fake_value"]

        def unleash() -> None:
            # A forged DECIDE goes through real RB: it will be delivered,
            # but from a single origin — below the t+1 decision quorum.
            actor.broadcast_raw("RB_INIT", (Consensus.DECIDE_KEY, fake))
            for r in range(1, 21):
                actor.broadcast_raw("EA_RELAY", (r, fake))
                actor.broadcast_raw("EA_COORD", (r, fake))

        sim.call_soon(unleash)
        return None
    if spec.kind == "bot_relays":
        actor = RawByzantine(pid, sim, network, rng.stream("adv", pid))

        def poison() -> None:
            for r in range(1, spec.params.get("max_round", 500) + 1):
                actor.broadcast_raw("EA_RELAY", (r, BOT))

        sim.call_soon(poison)
        return None
    # Protocol-running strategies differ only in their outbound filter.
    if spec.kind == "collude":
        outbound = honest_filter
    elif spec.kind == "two_faced":
        outbound = two_faced_filter(spec.params["fake_value"])
    elif spec.kind == "flip_flop":
        outbound = flip_flop_filter(spec.params["values"])
    elif spec.kind == "mute_coord":
        outbound = mute_coordinator_filter()
    elif spec.kind == "crash_at":
        outbound = crash_at_filter(spec.params["time"])
    else:
        raise ConfigurationError(f"unknown adversary kind {spec.kind!r}")
    if "crash_time" in spec.params and spec.kind != "crash_at":
        outbound = compose_filters(outbound, crash_at_filter(spec.params["crash_time"]))
    return MisbehavingProcess(pid, sim, network, outbound)


def _adversary_proposal(spec: AdversarySpec, config: RunConfig) -> Any:
    if spec.proposal is not None:
        return spec.proposal
    if "fake_value" in spec.params:
        return spec.params["fake_value"]
    # Default: echo some correct value (a subtle adversary blends in).
    return next(iter(config.proposals.values()))


@dataclass
class RuntimeFrame:
    """One fully wired (but not yet run) consensus runtime.

    :func:`build_runtime` assembles it; :func:`run_consensus` drives it
    to completion, while the exhaustive checker
    (:mod:`repro.checking.harness`) instead steps the simulator manually
    so it can verify invariants between events and abort explorations
    mid-run.
    """

    config: RunConfig
    sim: Simulator
    network: Network
    rng: RngRegistry
    #: Tracked (correct) protocol stacks, ``pid -> Consensus``.
    consensi: dict[int, Any]
    rb_engines: dict[int, ReliableBroadcast]
    decision_times: dict[int, float]
    #: Completes when every tracked process has decided.
    all_decided: "Task | Any"
    tracer: Any = None
    #: Protocol stacks of protocol-running *adversaries* (untracked by
    #: the invariants, but part of the global state the checker
    #: fingerprints — their internals steer future behaviour).
    adversary_consensi: dict[int, Any] = field(default_factory=dict)


def build_runtime(
    config: RunConfig,
    context: "KernelContext | None" = None,
    chooser: Any | None = None,
) -> RuntimeFrame:
    """Assemble the simulator, network and protocol stacks for one run.

    ``chooser`` switches the runtime to *check mode* (as does a config
    with ``check_schedule`` set, which installs a
    :class:`~repro.checking.choice.ScheduleChooser` for it): the
    topology under test is replaced by :func:`instant_topology`, the
    virtual self channel delivers at the send instant, and the chooser
    is installed on the simulator before any task or adversary is
    scheduled, so it observes every choice point from event zero.
    """
    if context is not None:
        sim = Simulator(bus=context.fresh_bus(), pools=context.pools)
    else:
        sim = Simulator()
    if chooser is None and config.check_schedule is not None:
        from ..checking.choice import ScheduleChooser

        chooser = ScheduleChooser(config.check_schedule)
    check_mode = chooser is not None
    rng = RngRegistry(config.seed)
    if check_mode:
        topology = instant_topology(config.n)
    elif config.topology is not None:
        topology = config.topology
    else:
        topology = default_topology(config)
    network = Network(
        sim,
        config.n,
        timing=topology.overrides,
        default_timing=topology.default,
        rng=rng,
        fifo=config.fifo,
        recycle=True,
    )
    if check_mode:
        # Self-deliveries land on the ready tier like everything else;
        # the chooser treats them as eager internal events (sound: the
        # 1e-9 self channel always beats the sampled stack's positive
        # delay floor, so cascades drain first there too).
        network._self_timing = Instant()
        sim.set_chooser(chooser)
        bind = getattr(chooser, "bind", None)
        if bind is not None:
            bind(network)
    tracer = None
    if config.trace:
        from ..analysis.traces import Tracer

        tracer = Tracer().attach_network(network)
    timeout_fn = config.timeout_fn if config.timeout_fn is not None else default_timeout

    consensus_cls = BotConsensus if config.variant == "bot" else Consensus
    common_kwargs: dict[str, Any] = {
        "k": config.k,
        "timeout_fn": timeout_fn,
        "max_rounds": config.max_rounds,
    }
    if config.ea_factory is not None:
        common_kwargs["ea_factory"] = config.ea_factory
    if config.selector is not None:
        common_kwargs["selector"] = config.selector
    if config.variant == "standard":
        common_kwargs["m"] = config.m

    consensi: dict[int, Any] = {}
    rb_engines: dict[int, ReliableBroadcast] = {}
    adversary_consensi: dict[int, Any] = {}
    decision_times: dict[int, float] = {}

    def build_stack(process: Process, proposal: Any, track: bool) -> None:
        rb = ReliableBroadcast(process, config.n, config.t)
        consensus = consensus_cls(process, rb, config.n, config.t, **common_kwargs)
        if not track:
            adversary_consensi[process.pid] = consensus
        if track:
            consensi[process.pid] = consensus
            rb_engines[process.pid] = rb
            consensus.decision.add_done_callback(
                lambda fut, pid=process.pid: decision_times.setdefault(pid, sim.now)
            )
            if tracer is not None:
                rb.subscribe_all(
                    lambda origin, key, value, pid=process.pid: tracer.record(
                        sim.now, "rb_deliver", pid=pid,
                        origin=origin, instance=key, value=value,
                    )
                )
                consensus.decision.add_done_callback(
                    lambda fut, pid=process.pid: tracer.record(
                        sim.now, "decide", pid=pid,
                        value=fut.result() if not fut.cancelled() else None,
                    )
                )
        process.create_task(consensus.propose(proposal), name=f"p{process.pid}.propose")

    # Adversaries first so their network registrations exist before t=0.
    for pid, spec in config.adversaries.items():
        adv_process = _deploy_adversary(pid, spec, sim, network, rng)
        if adv_process is not None and spec.runs_protocol:
            build_stack(adv_process, _adversary_proposal(spec, config), track=False)

    for pid in sorted(config.proposals):
        process = Process(pid, sim, network)
        build_stack(process, config.proposals[pid], track=True)

    all_decided = gather(
        sim, [consensi[pid].decision for pid in sorted(consensi)], name="all-decisions"
    )
    return RuntimeFrame(
        config=config,
        sim=sim,
        network=network,
        rng=rng,
        consensi=consensi,
        rb_engines=rb_engines,
        decision_times=decision_times,
        all_decided=all_decided,
        tracer=tracer,
        adversary_consensi=adversary_consensi,
    )


def run_consensus(
    config: RunConfig,
    check_invariants: bool = True,
    context: "KernelContext | None" = None,
) -> ConsensusRunResult:
    """Execute one full consensus run described by ``config``.

    Returns a result whether or not every process decided: if the time or
    event budget ran out, ``timed_out`` is set and partial decisions are
    reported (benchmark E8 uses exactly this to measure non-convergence).
    When ``check_invariants`` is true (default), safety violations raise.

    ``context`` supplies the reusable per-worker kernel state (shared
    instrumentation bus); sweeps pass one so per-scenario object churn
    stays minimal.  The fast path attaches *no* instrumentation sinks —
    message totals and per-tag counts come from the network's native
    counters — so with ``config.trace`` unset the probes cost one
    pointer check per message.

    A config with ``check_schedule`` set replays a checker counterexample
    instead: check-mode semantics, delivery order forced by the schedule
    (see :func:`build_runtime`).
    """
    frame = build_runtime(config, context=context)
    sim = frame.sim
    network = frame.network
    consensi = frame.consensi
    timed_out = False
    try:
        sim.run_until_complete(
            frame.all_decided, max_time=config.max_time, max_events=config.max_events
        )
    except (DeadlineExceeded, DeadlockError):
        timed_out = True
        # A budget can trip before a task took its first step.
        sim._close_unstarted_tasks()

    decisions = {
        pid: consensus.decision.result()
        for pid, consensus in consensi.items()
        if consensus.decision.done() and not consensus.decision.cancelled()
    }
    rounds = {pid: consensus.rounds_executed for pid, consensus in consensi.items()}
    report = verify_consensus_run(
        decisions,
        config.proposals,
        consensi=consensi,
        rb_engines=frame.rb_engines,
        allow_bot=(config.variant == "bot"),
    )
    if check_invariants:
        report.raise_if_failed()
    return ConsensusRunResult(
        config=config,
        decisions=decisions,
        decision_times=frame.decision_times,
        rounds=rounds,
        timed_out=timed_out,
        messages_sent=network.messages_sent,
        sent_by_tag=dict(network.sent_by_tag),
        events_processed=sim.events_processed,
        finished_at=sim.now,
        invariants=report,
        consensi=consensi,
        network=network,
        trace=frame.tracer,
    )


@dataclass
class RandomizedRunResult:
    """Outcome of one randomized-baseline run."""

    decisions: dict[int, int]
    decision_rounds: dict[int, int]
    timed_out: bool
    messages_sent: int
    finished_at: float

    @property
    def all_decided(self) -> bool:
        """Whether every correct process decided."""
        return not self.timed_out and bool(self.decisions)


def run_randomized(
    n: int,
    t: int,
    proposals: dict[int, int],
    topology: Topology,
    adversaries: dict[int, AdversarySpec] | None = None,
    seed: int = 0,
    max_rounds: int = 200,
    max_time: float = 1_000_000.0,
    max_events: int = 20_000_000,
) -> RandomizedRunResult:
    """Execute the randomized binary baseline under the same substrate.

    Supports the full adversary vocabulary: non-protocol kinds run as
    raw actors, protocol-running kinds (``two_faced``, ``crash_at``,
    ``collude``, ...) run the genuine randomized protocol behind their
    outbound filter, proposing ``spec.proposal`` when it is a bit.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(
        sim,
        n,
        timing=topology.overrides,
        default_timing=topology.default,
        rng=rng,
        recycle=True,
    )
    coin = CommonCoin(derive_seed(seed, "common-coin"))
    adversaries = adversaries or {}
    for pid, spec in adversaries.items():
        try:
            adv_process = _deploy_adversary(pid, spec, sim, network, rng)
        except KeyError:
            # Kinds needing consensus-specific params degrade to crash.
            RawByzantine(pid, sim, network, rng.stream("adv", pid))
            continue
        if adv_process is not None and spec.runs_protocol:
            bit = spec.proposal if spec.proposal in (0, 1) else 0
            instance = RandomizedBinaryConsensus(
                adv_process, n, t, coin, max_rounds=max_rounds
            )
            adv_process.create_task(
                instance.propose(bit), name=f"p{pid}.rbc-byz"
            )
    instances: dict[int, RandomizedBinaryConsensus] = {}
    for pid, value in sorted(proposals.items()):
        process = Process(pid, sim, network)
        instance = RandomizedBinaryConsensus(
            process, n, t, coin, max_rounds=max_rounds
        )
        instances[pid] = instance
        process.create_task(instance.propose(value), name=f"p{pid}.rbc")
    all_decided = gather(
        sim, [instances[pid].decision for pid in sorted(instances)], name="rbc"
    )
    timed_out = False
    try:
        sim.run_until_complete(all_decided, max_time=max_time, max_events=max_events)
    except (DeadlineExceeded, DeadlockError):
        timed_out = True
        sim._close_unstarted_tasks()
    decisions = {
        pid: inst.decision.result()
        for pid, inst in instances.items()
        if inst.decision.done() and not inst.decision.cancelled()
    }
    decision_rounds = {
        pid: inst.decided_round
        for pid, inst in instances.items()
        if inst.decided_round is not None
    }
    return RandomizedRunResult(
        decisions=decisions,
        decision_rounds=decision_rounds,
        timed_out=timed_out,
        messages_sent=network.messages_sent,
        finished_at=sim.now,
    )
