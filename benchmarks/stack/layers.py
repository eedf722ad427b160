"""The traced run: per-layer metrics from isolated drivers and spans.

Everything here runs in-process, on the same definitions the end-to-end
passes render as argv, with spans recorded around calls into each
layer's public functions (:mod:`tracing`).  The simulate interior cannot
be split from outside, so it is measured as a ladder of drivers at the
workload's own sizes and message counts, each a superset of the one
below::

    sim    Simulator alone: ready tier, timers, cancellation
    net    + Network/Channel: self-clocked n^2 send / broadcast waves
    rb     + Process + ReliableBroadcast: K instances per process
    core   the real run: build_runtime + run_until_complete

A layer's self cost per message is its rung minus the rung beneath;
``core.residual_us_per_msg`` closes the ladder against the real run.

Every probe repeats while its share of ``--seconds`` lasts and records
one sample per repeat; the reported value is the median.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from e2e import check_problems, child_env, run_cli, sha256_file
from stats import summarize
from tracing import Tracer
from workloads import Workload

#: Samples one probe takes at most, however cheap it is.
MAX_SAMPLES = 7
#: Messages per flood rung: the reference run's own count, capped so the
#: n=31 ladder still repeats inside its share of the window.
MAX_FLOOD_MESSAGES = 150_000


class TracedRun:
    """One workload's traced pass; ``metrics`` maps name -> samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 quick: bool, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.scratch = scratch
        self.tracer = Tracer()
        self.span = self.tracer.span
        self.metrics: dict[str, list[float]] = {}
        #: Per-size ladder rows for the human-readable table.
        self.ladder: list[dict[str, Any]] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.carry = 0.0
        self.notes: dict[str, Any] = {}

    # -- bookkeeping ------------------------------------------------------

    def record(self, name: str, value: float) -> None:
        self.metrics.setdefault(name, []).append(float(value))

    def expect(self, what: str, ok: bool) -> None:
        """One oracle operation: counted, and reported when it fails."""
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def repeat(self, name: str, share: float, body: Callable[[], None]) -> None:
        """Call ``body`` until its share of the window is spent (at least
        once, at most ``MAX_SAMPLES``); what a probe leaves unspent goes
        to the ones after it.  Spans of one call share a repeat id."""
        budget = 0.0 if self.quick else self.seconds * share + self.carry
        spent = 0.0
        count = 0
        while True:
            self.tracer.repeat = f"{self.workload.name}#{name}.{count}"
            started = time.perf_counter()
            # Collect now so a full collection owed to an earlier probe's
            # garbage does not land inside this one's spans.
            with self.span("gc.collect", "bench"):
                gc.collect()
            body()
            spent += time.perf_counter() - started
            count += 1
            if count >= MAX_SAMPLES or spent + spent / count > budget:
                break
        self.carry = max(0.0, budget - spent)
        self.tracer.repeat = ""

    # -- the pass ---------------------------------------------------------

    def run(self) -> dict[str, Any]:
        with self.span("import repro", "bench"):
            import repro  # noqa: F401
            from repro.orchestration import KernelContext

        self.context = KernelContext()
        # Per-scenario probes run the workload's ~1/10-size matrix: their
        # metrics are per unit, and the window has to fit twelve layers.
        with self.span("expand probe matrix", "bench"):
            self.matrix = self.workload.quick.matrix(self.seed)
            self.specs = self.matrix.expand()
        self.scratch.mkdir(parents=True, exist_ok=True)

        self.probe_ladder()
        self.probe_sim()
        self.probe_instrumentation()
        self.probe_scenarios()
        self.probe_backends()
        self.probe_analysis()
        self.probe_store()
        self.probe_shards()
        self.probe_dispatch()
        self.probe_checking()
        self.probe_cli()

        wall = time.perf_counter() - self.tracer.started
        return {
            "per_layer": {
                name: summarize(samples)
                for name, samples in sorted(self.metrics.items())
            },
            "ladder": self.ladder,
            "layer_table": self.tracer.layer_table(wall),
            "exact": {"digests": self.digests},
            "notes": self.notes,
            "attempted": self.attempted,
            "failed": len(self.problems),
            "problems": self.problems,
            "traced_wall_s": wall,
        }

    # -- sim / net / broadcast / core ladder ------------------------------

    def staged(self, spec: Any) -> tuple[Any, dict[str, float], Any]:
        """``run_scenario(spec)`` taken apart at its public seams, one
        span per stage; returns (outcome, stage seconds, frame)."""
        from repro.analysis import verify_consensus_run
        from repro.errors import DeadlineExceeded, DeadlockError
        from repro.orchestration.matrix import build_config, summarize_run
        from repro.orchestration.runner import ConsensusRunResult, build_runtime

        context = self.context
        with self.span("matrix.build_config", "orchestration.matrix") as s_config:
            config = build_config(spec, context)
        with self.span("runner.build_runtime", "orchestration.runner") as s_build:
            frame = build_runtime(config, context=context)
        timed_out = False
        with self.span("sim.run_until_complete", "core") as s_sim:
            try:
                frame.sim.run_until_complete(
                    frame.all_decided, max_time=config.max_time,
                    max_events=config.max_events,
                )
            except (DeadlineExceeded, DeadlockError):
                timed_out = True
        self.tracer.count("core.messages", frame.network.messages_sent)
        self.tracer.count("core.events", frame.sim.events_processed)
        with self.span("analysis.verify_consensus_run", "analysis") as s_verify:
            decisions = {
                pid: c.decision.result() for pid, c in frame.consensi.items()
                if c.decision.done() and not c.decision.cancelled()
            }
            report = verify_consensus_run(
                decisions, config.proposals, consensi=frame.consensi,
                rb_engines=frame.rb_engines,
                allow_bot=(config.variant == "bot"),
            )
        with self.span("matrix.summarize_run", "orchestration.matrix") as s_sum:
            result = ConsensusRunResult(
                config=config, decisions=decisions,
                decision_times=frame.decision_times,
                rounds={pid: c.rounds_executed
                        for pid, c in frame.consensi.items()},
                timed_out=timed_out,
                messages_sent=frame.network.messages_sent,
                sent_by_tag=dict(frame.network.sent_by_tag),
                events_processed=frame.sim.events_processed,
                finished_at=frame.sim.now, invariants=report,
                consensi=frame.consensi, network=frame.network,
            )
            outcome = summarize_run(spec, result)
        seconds = {
            "build_config": s_config.seconds, "build_runtime": s_build.seconds,
            "simulate": s_sim.seconds, "verify": s_verify.seconds,
            "summarize": s_sum.seconds,
        }
        return outcome, seconds, frame

    def network(self, topology: Any, n: int) -> tuple[Any, Any]:
        """A simulator + network wired as ``build_runtime`` wires them."""
        from repro.net import Network
        from repro.sim import RngRegistry, Simulator

        sim = Simulator()
        net = Network(
            sim, n, timing=topology.overrides, default_timing=topology.default,
            rng=RngRegistry(self.seed), recycle=True,
        )
        return sim, net

    def net_flood(self, topology: Any, n: int, messages: int,
                  broadcast: bool, counted: bool = False) -> tuple[float, Any]:
        """``messages`` (rounded up to whole n^2 waves) through the bare
        network; the next wave starts when the last delivery of the
        previous one lands, the way an RB phase follows a phase."""
        sim, net = self.network(topology, n)
        pids = range(1, n + 1)
        state = {"in_flight": 0, "left": messages, "seen": 0}

        def wave() -> None:
            state["in_flight"] = n * n
            state["left"] -= n * n
            if broadcast:
                for pid in pids:
                    net.broadcast(pid, "FLOOD", None)
            else:
                for pid in pids:
                    for dst in pids:
                        net.send(pid, dst, "FLOOD", None)

        def on_message(message: Any) -> None:
            state["in_flight"] -= 1
            if not state["in_flight"] and state["left"] > 0:
                wave()

        for pid in pids:
            net.register_process(pid, on_message)
        if counted:
            from repro.instrumentation import NET_DELIVER, NET_SEND

            def sink(message: Any, now: float) -> None:
                state["seen"] += 1

            net.bus.attach(NET_SEND, sink)
            net.bus.attach(NET_DELIVER, sink)
        name = "Network.broadcast" if broadcast else "Network.send"
        with self.span(f"{name} flood n={n}", "net") as span:
            wave()
            sim.run()
        self.tracer.count("net.flood_messages", net.messages_sent)
        if counted:
            self.expect("counting sink missed messages",
                        state["seen"] == 2 * net.messages_sent)
        return span.seconds, net

    def rb_flood(self, topology: Any, n: int, t: int, silent: frozenset[int],
                 rounds: int, count_late: bool = False,
                 ) -> tuple[float, Any, list[Any], dict[str, int]]:
        """Every live process RB-broadcasts one value per round, to
        quiescence; the next round starts on the last delivery of the
        previous one.  ``silent`` pids receive and do nothing, as the
        reference scenario's crashed processes do.  With ``count_late``
        an (untimed) bus sink counts ECHO/READY that arrive after their
        instance was already delivered at the receiver."""
        from repro.broadcast import ReliableBroadcast
        from repro.runtime import Process

        sim, net = self.network(topology, n)
        engines = {}
        for pid in range(1, n + 1):
            if pid in silent:
                net.register_process(pid, lambda message: None)
            else:
                engines[pid] = ReliableBroadcast(Process(pid, sim, net), n, t)
        per_round = len(engines) ** 2
        state = {"round": 0, "delivered": 0, "late": 0, "handled": 0}

        def start_round() -> None:
            key = ("bench", state["round"])
            state["round"] += 1
            for pid, engine in engines.items():
                engine.broadcast(key, f"v{pid}")

        def on_deliver(origin: int, key: Any, value: Any) -> None:
            state["delivered"] += 1
            if state["delivered"] % per_round == 0 and state["round"] < rounds:
                start_round()

        for engine in engines.values():
            engine.subscribe_all(on_deliver)
        if count_late:
            from repro.instrumentation import NET_DELIVER

            late_tags = (ReliableBroadcast.ECHO, ReliableBroadcast.READY)

            def sink(message: Any, now: float) -> None:
                engine = engines.get(message.dest)
                if engine is not None and message.tag in late_tags:
                    state["handled"] += 1
                    origin, key = message.payload[0], message.payload[1]
                    if engine.delivered_value(origin, key) is not None:
                        state["late"] += 1

            net.bus.attach(NET_DELIVER, sink)
        layer = "bench" if count_late else "broadcast"
        with self.span(f"ReliableBroadcast n={n} rounds={rounds}", layer) as span:
            start_round()
            sim.run()
        self.tracer.count("broadcast.flood_messages", net.messages_sent)
        return span.seconds, net, list(engines.values()), state

    def probe_ladder(self) -> None:
        """core -> rb -> net at each size of the workload's grid, on its
        first scenario of that size, at that scenario's message count,
        topology and set of live processes.  Metrics are message-weighted
        over the sizes; the per-size rows go to the ladder table."""
        from repro.broadcast import ReliableBroadcast
        from repro.orchestration import default_topology
        from repro.orchestration.matrix import build_config

        sweep = self.workload.quick if self.quick else self.workload.sweep
        specs = sweep.matrix(self.seed).expand()
        references = []
        for size in sweep.grid:
            spec = next(s for s in specs if (s.n, s.t) == size)
            config = build_config(spec, self.context)
            silent = frozenset(pid for pid, adversary in config.adversaries.items()
                               if not adversary.runs_protocol)
            references.append(
                (spec, config.topology or default_topology(config), silent))
        rb_tags = (ReliableBroadcast.INIT, ReliableBroadcast.ECHO,
                   ReliableBroadcast.READY)
        pools = self.context.pools
        rungs: dict[int, dict[str, list[float]]] = {
            n: {"net_us": [], "rb_us": [], "core_us": []} for n, _ in sweep.grid}

        def once() -> None:
            total: dict[str, float] = dict.fromkeys((
                "core_s", "core_msgs", "core_rb_msgs", "events", "allocs",
                "latency", "rb_s", "rb_msgs", "rb_instances", "rb_deliveries",
                "rb_entries", "send_s", "bcast_s", "net_msgs", "channels",
            ), 0.0)
            rounds_max = 0
            for spec, topology, silent in references:
                n, t = spec.n, spec.t
                created = pools.created_total()
                outcome, seconds, frame = self.staged(spec)
                self.expect(f"ladder reference n={n} undecided or unsafe",
                            outcome.decided and outcome.invariants_ok)
                msgs = frame.network.messages_sent
                rb_msgs = sum(frame.network.sent_by_tag.get(tag, 0)
                              for tag in rb_tags)
                total["core_s"] += seconds["simulate"]
                total["core_msgs"] += msgs
                total["core_rb_msgs"] += rb_msgs
                total["events"] += frame.sim.events_processed
                total["allocs"] += pools.created_total() - created
                total["latency"] += statistics.fmean(frame.decision_times.values())
                rounds_max = max(rounds_max, outcome.max_round)

                budget = min(msgs, MAX_FLOOD_MESSAGES)
                live = n - len(silent)
                per_round = live * n * (1 + 2 * live)
                rb_rounds = max(1, round(budget * rb_msgs / msgs / per_round))
                rb_s, rb_net, engines, rb_state = self.rb_flood(
                    topology, n, t, silent, rb_rounds)
                total["rb_s"] += rb_s
                total["rb_msgs"] += rb_net.messages_sent
                total["rb_instances"] += live * rb_rounds
                total["rb_deliveries"] += rb_state["delivered"]
                total["rb_entries"] += sum(
                    len(value) for engine in engines
                    for value in vars(engine).values() if isinstance(value, dict))
                send_s, _ = self.net_flood(topology, n, budget, False)
                bcast_s, net = self.net_flood(topology, n, budget, True)
                total["send_s"] += send_s
                total["bcast_s"] += bcast_s
                total["net_msgs"] += net.messages_sent
                total["channels"] += net.channels_materialized
                rungs[n]["net_us"].append(bcast_s / net.messages_sent * 1e6)
                rungs[n]["rb_us"].append(rb_s / rb_net.messages_sent * 1e6)
                rungs[n]["core_us"].append(seconds["simulate"] / msgs * 1e6)

            share = total["core_rb_msgs"] / total["core_msgs"]
            core_us = total["core_s"] / total["core_msgs"] * 1e6
            rb_us = total["rb_s"] / total["rb_msgs"] * 1e6
            record = self.record
            record("core.us_per_msg", core_us)
            record("core.events_per_s", total["events"] / total["core_s"])
            record("core.rb_msg_share", share)
            record("core.residual_us_per_msg", core_us - rb_us * share)
            record("core.rounds_max", rounds_max)
            record("core.virtual_latency_mean", total["latency"] / len(references))
            record("core.msgs_per_decision", total["core_msgs"] / len(references))
            record("sim.events", total["events"])
            record("sim.allocs_per_event", total["allocs"] / total["events"])
            record("broadcast.rb_us_per_msg", rb_us)
            record("broadcast.rb_msgs_per_instance",
                   total["rb_msgs"] / total["rb_instances"])
            record("broadcast.rb_deliveries", total["rb_deliveries"])
            record("broadcast.rb_state_entries_end", total["rb_entries"])
            record("net.send_us_per_msg", total["send_s"] / total["net_msgs"] * 1e6)
            record("net.bcast_us_per_msg", total["bcast_s"] / total["net_msgs"] * 1e6)
            record("net.msgs", total["net_msgs"])
            record("net.channels_materialized", total["channels"])

        self.repeat("ladder", 0.32, once)
        self.ladder = [
            {"n": n, **{key: statistics.median(values)
                        for key, values in rungs[n].items()}}
            for n in sorted(rungs)
        ]
        # Late ECHO/READY share: counted once, in its own untimed pass,
        # because an attached sink changes what the timed rungs cost, and
        # with no process silent: with t of n crashed the delivery quorum
        # is every live process, so nothing can arrive late.
        late = handled = 0
        for spec, topology, _ in references:
            state = self.rb_flood(topology, spec.n, spec.t, frozenset(), 1,
                                  count_late=True)[3]
            late += state["late"]
            handled += state["handled"]
        self.record("broadcast.rb_post_delivery_share", late / handled)

    def probe_sim(self) -> None:
        from repro.sim import Simulator

        events = 20_000 if self.quick else 50_000

        def noop() -> None:
            pass

        def once() -> None:
            sim = Simulator()
            left = [events]

            def tick() -> None:
                left[0] -= 1
                if left[0] > 0:
                    sim.call_soon(tick)

            with self.span("Simulator.call_soon + run", "sim") as span:
                sim.call_soon(tick)
                sim.run()
            self.record("sim.ready_us_per_event", span.seconds / events * 1e6)

            sim = Simulator()
            with self.span("Simulator.call_at + run", "sim") as span:
                # A fixed pseudo-random delay pattern: real heap
                # reordering with no RNG in the timed region.
                for i in range(events):
                    sim.call_at(float((i * 7919) % 104729), noop)
                sim.run()
            self.record("sim.timer_us_per_event", span.seconds / events * 1e6)

            sim = Simulator()
            with self.span("Simulator.call_at + cancel + run", "sim") as span:
                handles = [sim.call_at(float(1 + (i * 7919) % 104729), noop)
                           for i in range(events)]
                # A protocol run cancels most of its round timers.
                for i, handle in enumerate(handles):
                    if i % 5:
                        handle.cancel()
                sim.run()
            self.record("sim.cancel_us_per_event", span.seconds / events * 1e6)

        self.repeat("sim", 0.04, once)

    def probe_instrumentation(self) -> None:
        """The zero-cost-when-off contract, net side: the same flood
        with and without a counting sink on ``net.send``/``net.deliver``."""
        from repro.orchestration import default_topology
        from repro.orchestration.matrix import build_config

        spec = self.specs[0]
        config = build_config(spec, self.context)
        topology = config.topology or default_topology(config)
        messages = 5_000 if self.quick else 40_000

        def once() -> None:
            plain, _ = self.net_flood(topology, spec.n, messages, True)
            counted, _ = self.net_flood(topology, spec.n, messages, True,
                                        counted=True)
            self.record("instrumentation.counted_overhead_ratio",
                        counted / plain)

        self.repeat("instrumentation", 0.04, once)

    # -- orchestration / analysis -----------------------------------------

    def probe_scenarios(self) -> None:
        """The per-scenario stages over the probe matrix; the staged
        outcome must be the one ``sweep_serial`` produces."""
        from repro.orchestration import sweep_serial
        from repro.store.shards import encode_record

        with self.span("parallel.sweep_serial (reference)",
                       "orchestration.parallel"):
            self.serial = sweep_serial(self.matrix)
        reference = [encode_record(o) for o in self.serial.outcomes]
        self.expect(
            "probe matrix: a scenario is undecided, unsafe or errored",
            all(o.decided and o.invariants_ok and not o.error
                for o in self.serial.outcomes),
        )

        from repro.orchestration import run_scenario

        overheads: list[float] = []

        def once() -> None:
            with self.span("matrix.expand", "orchestration.matrix") as span:
                specs = self.matrix.expand()
            self.record("matrix.expand_us_per_spec",
                        span.seconds / len(specs) * 1e6)
            sums: dict[str, float] = {}
            lines = []
            started = time.perf_counter()
            for spec in specs:
                outcome, seconds, _ = self.staged(spec)
                lines.append(encode_record(outcome))
                for stage, value in seconds.items():
                    sums[stage] = sums.get(stage, 0.0) + value
            traced = time.perf_counter() - started
            gc.collect()
            with self.span("run_scenario loop (untraced)", "orchestration.runner") as span:
                for spec in specs:
                    run_scenario(spec, context=self.context)
            overheads.append(traced / span.seconds - 1)
            self.expect("staged pipeline outcome != run_scenario outcome",
                        lines == reference)
            count = len(specs)
            self.record("matrix.build_config_us", sums["build_config"] / count * 1e6)
            self.record("runner.build_runtime_us", sums["build_runtime"] / count * 1e6)
            self.record("runner.simulate_us", sums["simulate"] / count * 1e6)
            self.record("analysis.verify_us_per_scenario", sums["verify"] / count * 1e6)
            self.record("matrix.summarize_us", sums["summarize"] / count * 1e6)
            total = sum(sums.values())
            self.record("runner.fixed_share", (total - sums["simulate"]) / total)

        self.repeat("scenarios", 0.08, once)
        self.notes["tracing_overhead"] = (
            f"{statistics.median(overheads):+.1%}: the staged pass with spans "
            f"against run_scenario on the same {len(self.specs)} scenarios")

    def probe_backends(self) -> None:
        """Serial loop overhead, the profiler's cost, and the pool."""
        from repro.orchestration import (
            default_workers, run_scenario, sweep_parallel, sweep_serial,
        )
        from repro.orchestration.pool import WorkerPool
        from repro.profiling import SweepProfiler

        count = len(self.specs)
        reference = self.write(self.serial, "serial.jsonl")
        self.digests["sweep_serial"] = reference

        # The loop around run_scenario costs tens of microseconds per
        # scenario: only visible as a difference of adjacent passes over
        # the cheapest scenarios, alternating which side goes first.
        cheapest = sorted(self.serial.outcomes, key=lambda o: o.events_processed)
        cheap = sorted((o.spec for o in cheapest[:8]), key=lambda spec: spec.index)
        loop_first = False

        def loop() -> float:
            with self.span("run_scenario loop", "orchestration.runner") as span:
                for spec in cheap:
                    run_scenario(spec, context=self.context)
            return span.seconds

        def serial() -> float:
            with self.span("parallel.sweep_serial (cheapest)",
                           "orchestration.parallel") as span:
                sweep_serial(cheap)
            return span.seconds

        def pair() -> None:
            nonlocal loop_first
            loop_first = not loop_first
            if loop_first:
                inner, outer = loop(), serial()
            else:
                outer, inner = serial(), loop()
            self.record("parallel.serial_overhead_us_per_scenario",
                        (outer - inner) / len(cheap) * 1e6)

        self.repeat("serial overhead", 0.03, pair)

        workers = min(default_workers(), os.cpu_count() or 1)
        self.notes["pool_workers"] = workers
        with self.span("pool.WorkerPool + ping", "orchestration.pool") as span:
            pool = WorkerPool(workers)
            pool.ping()
        self.record("pool.startup_s", span.seconds)
        try:
            def once() -> None:
                with self.span("parallel.sweep_serial",
                               "orchestration.parallel") as s_serial:
                    sweep_serial(self.specs)
                with self.span("parallel.sweep_serial(profiler=)",
                               "profiling") as s_profiled:
                    sweep_serial(self.specs, profiler=SweepProfiler())
                self.record("profiling.overhead_ratio",
                            s_profiled.seconds / s_serial.seconds)
                with self.span("parallel.sweep_parallel",
                               "orchestration.pool") as s_pool:
                    pooled = sweep_parallel(self.matrix, workers=workers, pool=pool)
                self.record("pool.scenarios_per_s", count / s_pool.seconds)
                self.record("pool.speedup", s_serial.seconds / s_pool.seconds)
                self.digests["sweep_parallel"] = self.write(pooled, "pooled.jsonl")
                self.expect("pooled JSONL differs from serial",
                            self.digests["sweep_parallel"] == reference)

            self.repeat("backends", 0.12, once)
        finally:
            pool.shutdown()

    def write(self, sweep: Any, name: str) -> str:
        with self.span(f"write+hash {name}", "bench"):
            return sha256_file(sweep.write_jsonl(self.scratch / name))

    def probe_analysis(self) -> None:
        from repro.analysis.aggregation import (
            aggregate_outcomes, render_matrix_table,
        )

        outcomes = self.serial.outcomes

        def once() -> None:
            with self.span("analysis.aggregate_outcomes", "analysis") as span:
                report = aggregate_outcomes(outcomes)
            self.record("analysis.aggregate_us_per_outcome",
                        span.seconds / len(outcomes) * 1e6)
            with self.span("analysis.render_matrix_table", "analysis") as span:
                render_matrix_table(report)
            self.record("analysis.render_us", span.seconds * 1e6)

        self.repeat("analysis", 0.01, once)

    # -- store -------------------------------------------------------------

    def probe_store(self) -> None:
        from repro.orchestration import sweep_serial
        from repro.store import ResultCache, scenario_key
        from repro.store.atomic import atomic_write_text

        outcomes = self.serial.outcomes
        count = len(outcomes)
        self.cache_dir = self.scratch / "cache"
        real_fsync = os.fsync
        fsyncs = 0

        def counting_fsync(fd: int) -> None:
            nonlocal fsyncs
            fsyncs += 1
            real_fsync(fd)

        def once() -> None:
            nonlocal fsyncs
            # scenario_key memoizes per spec instance: key fresh ones.
            fresh = self.matrix.expand()
            with self.span("cache.scenario_key", "store.cache") as span:
                for spec in fresh:
                    scenario_key(spec, "bench")
            self.record("cache.key_us", span.seconds / count * 1e6)

            shutil.rmtree(self.cache_dir, ignore_errors=True)
            cache = ResultCache(self.cache_dir)
            fsyncs = 0
            os.fsync = counting_fsync
            try:
                for outcome in outcomes:
                    with self.span("ResultCache.put", "store.cache") as span:
                        cache.put(outcome)
                    self.record("cache.put_us", span.seconds * 1e6)
            finally:
                os.fsync = real_fsync
            self.record("atomic.fsyncs_per_put", fsyncs / count)

            disk = ResultCache(self.cache_dir)
            with self.span("ResultCache.get (disk)", "store.cache") as span:
                hits = sum(disk.get(o.spec) is not None for o in outcomes)
            self.record("cache.get_disk_us", span.seconds / count * 1e6)
            with self.span("ResultCache.get (memory)", "store.cache") as span:
                for outcome in outcomes:
                    disk.get(outcome.spec)
            self.record("cache.get_mem_us", span.seconds / count * 1e6)
            self.expect("cache lost entries it was just given", hits == count)

            with self.span("parallel.sweep_serial(cache=) warm",
                           "orchestration.parallel"):
                warm = sweep_serial(self.matrix, cache=ResultCache(self.cache_dir))
            self.record("cache.hit_ratio", warm.cache_hits / count)
            self.digests["warm_cache"] = self.write(warm, "warm.jsonl")
            self.expect("warm-cache JSONL differs from serial",
                        self.digests["warm_cache"] == self.digests["sweep_serial"])

            payload = "x" * 600  # about one cache entry
            target = self.scratch / "atomic"
            for index in range(32):
                with self.span("atomic.atomic_write_text", "store.atomic") as span:
                    atomic_write_text(target / f"{index}.json", payload)
                self.record("atomic.write_us", span.seconds * 1e6)

        self.repeat("store", 0.04, once)

    def probe_shards(self) -> None:
        from repro.store import merge_shards, read_shard
        from repro.store.shards import encode_record

        outcomes = self.serial.outcomes
        count = len(outcomes)
        path = self.scratch / "shard.jsonl"

        def once() -> None:
            with self.span("shards.encode_record", "store.shards") as span:
                size = sum(len(encode_record(o).encode("utf-8")) for o in outcomes)
            self.record("shards.encode_us_per_record", span.seconds / count * 1e6)
            self.record("shards.bytes_per_record", size / count)
            with self.span("SweepResult.write_jsonl", "store.shards") as span:
                self.serial.write_jsonl(path)
            self.record("shards.write_us_per_record", span.seconds / count * 1e6)
            with self.span("shards.read_shard", "store.shards") as span:
                read_shard(path)
            self.record("shards.read_us_per_record", span.seconds / count * 1e6)
            with self.span("shards.merge_shards", "store.shards") as span:
                merge_shards([path])
            self.record("shards.merge_us_per_record", span.seconds / count * 1e6)

        self.repeat("shards", 0.02, once)

    def probe_dispatch(self) -> None:
        """plan -> claim (against the warm cache, as store_cycle does) ->
        collect; the collected JSONL must be the serial one."""
        from repro.orchestration import plan_dispatch, run_claims
        from repro.store import ResultCache, ShardCollector

        root = self.scratch / "dispatch"

        def once() -> None:
            shutil.rmtree(root, ignore_errors=True)
            with self.span("dispatch.plan_dispatch",
                           "orchestration.dispatch") as span:
                plan = plan_dispatch(self.matrix, root, units=8)
            self.record("dispatch.plan_s", span.seconds)
            inside = []
            with self.span("dispatch.run_claims", "orchestration.dispatch") as span:
                units = run_claims(
                    plan, worker="bench", cache=ResultCache(self.cache_dir),
                    on_unit=lambda unit, result: inside.append(result.elapsed),
                )
            self.record("dispatch.unit_overhead_ms",
                        (span.seconds - sum(inside)) / len(units) * 1e3)
            collector = ShardCollector(plan.shard_dir)
            with self.span("ShardCollector.scan", "store.collector") as span:
                collector.scan()
            self.record("collector.fold_us_per_record",
                        span.seconds / collector.records_folded * 1e6)
            with self.span("write+hash collected.jsonl", "bench"):
                collector.finalize(self.scratch / "collected.jsonl")
                self.digests["collect"] = sha256_file(
                    self.scratch / "collected.jsonl")
            self.expect("collected JSONL differs from serial",
                        self.digests["collect"] == self.digests["sweep_serial"])

        self.repeat("dispatch", 0.04, once)

    # -- checking ----------------------------------------------------------

    def probe_checking(self) -> None:
        from repro.checking import (
            MUTANTS, ScheduleChooser, apply_mutant, execute_run,
            minimize_counterexample, state_fingerprint,
        )

        checks = self.workload.quick_checks if self.quick else self.workload.checks
        searches = [replace(c, minimize=False) for c in checks]
        model = next(c for c in checks if c.mutant is None)
        config = model.config(self.seed)
        tracer = self.tracer
        record = self.record

        class Fingerprinting(ScheduleChooser):
            """First-candidate descent that fingerprints every real
            choice point it is paused at."""

            def choose(self, candidates: list[Any]) -> int:
                if len(self.channel_heads(candidates)) > 1:
                    with tracer.span("checking.state_fingerprint",
                                     "checking") as span:
                        state_fingerprint(self.frame, candidates,
                                          tasks=self.tasks, fifo=self.fifo)
                    record("checking.fingerprint_us", span.seconds * 1e6)
                return super().choose(candidates)

        def once() -> None:
            totals = dict.fromkeys(
                ("seconds", "steps", "executions", "states", "deduped", "pruned"),
                0.0)
            for check in searches:
                with self.span(f"Explorer.run {check.name}", "checking") as span:
                    result = check.explore(self.seed)
                stats = result.stats
                totals["seconds"] += span.seconds
                for key in ("steps", "executions", "states", "deduped", "pruned"):
                    totals[key] += getattr(stats, key)
                found = check_problems(check, {
                    "verdict": result.verdict, "exhausted": result.exhausted,
                    "states": stats.states, "minimized": result.minimized,
                })
                self.expect(f"{check.name}: {found}", not found)
            record("checking.steps_per_s", totals["steps"] / totals["seconds"])
            record("checking.executions", totals["executions"])
            record("checking.states", totals["states"])
            record("checking.steps", totals["steps"])
            record("checking.deduped", totals["deduped"])
            record("checking.pruned", totals["pruned"])
            record("checking.states_per_step", totals["states"] / totals["steps"])
            with self.span("checking.execute_run", "checking") as span:
                execute_run(config, ScheduleChooser(()))
            record("checking.execute_run_us", span.seconds * 1e6)
            execute_run(config, Fingerprinting(()))

        self.repeat("checking", 0.10, once)

        # Minimization is seconds per call: one sample, not a share.
        name = "decide-any-support"
        mutant = MUTANTS[name]
        raw = replace(checks[0], mutant=name, minimize=False).explore(self.seed)
        with apply_mutant(name):
            with self.span("checking.minimize_counterexample", "checking") as span:
                minimal = minimize_counterexample(
                    mutant.scenario(), raw.raw_counterexample,
                    frozenset(mutant.expected_checks),
                )
        record("checking.minimize_s", span.seconds)
        self.expect("mutant not found or not minimized",
                    raw.verdict == "violation"
                    and len(minimal) <= len(raw.raw_counterexample))

    # -- cli ---------------------------------------------------------------

    def probe_cli(self) -> None:
        """What a process start costs, and what the CLI adds on top of
        the in-process sweep it wraps (same specs, same bytes)."""
        from repro.orchestration import sweep_serial

        env = child_env()
        plan = self.workload.plan(self.seed, self.scratch, self.quick)
        self.record("cli.commands_per_repeat", len(plan))
        out = self.scratch / "cli.jsonl"
        sweep_argv = ["sweep", *self.workload.quick.flags(self.seed), "--workers", "1",
                      "--jsonl", str(out)]
        ledger = self.scratch / "events.jsonl"

        def python(*argv: str) -> float:
            started = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            return time.perf_counter() - started

        def start() -> None:
            with self.span("python -c 'import repro'", "cli"):
                self.record("cli.import_s", python("-c", "import repro"))
            with self.span("python -m repro --help", "cli"):
                self.record("cli.startup_s", python("-m", "repro", "--help"))

        def once() -> None:
            with self.span("sweep_serial + write_jsonl",
                           "orchestration.parallel") as inside:
                sweep_serial(self.matrix).write_jsonl(self.scratch / "inproc.jsonl")
            with self.span("python -m repro sweep", "cli"):
                plain = run_cli(sweep_argv, env)
            self.expect(f"CLI sweep exit {plain.exit_code}", plain.exit_code == 0)
            self.record("cli.overhead_s", plain.wall - inside.seconds)
            self.digests["cli"] = sha256_file(out)
            self.expect("CLI JSONL differs from in-process sweep_serial",
                        self.digests["cli"] == self.digests["sweep_serial"])
            ledger.unlink(missing_ok=True)
            with self.span("python -m repro sweep --events", "obs"):
                observed = run_cli([*sweep_argv, "--events", str(ledger)], env)
            self.expect(f"CLI sweep --events exit {observed.exit_code}",
                        observed.exit_code == 0 and sha256_file(out) == self.digests["cli"])
            self.record("obs.events_overhead_ratio", observed.wall / plain.wall)

        self.repeat("cli start-up", 0.04, start)
        self.repeat("cli sweep", 0.12, once)
