"""Tests for the reusable per-worker kernel context."""

from repro.orchestration.kernel import KernelContext, default_context
from repro.orchestration.matrix import ScenarioSpec, build_config, run_scenario


def spec(**overrides):
    base = dict(
        n=4, t=1, topology="fully_timely", adversary="crash",
        num_values=2, seed=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestKernelContext:
    def test_topology_cached_per_kind_and_size(self):
        ctx = KernelContext()
        a = ctx.topology("fully_timely", 7)
        assert a is ctx.topology("fully_timely", 7)
        assert a is not ctx.topology("fully_timely", 4)
        assert ctx.topology("single_bisource", 7) is None

    def test_adversary_cached_by_name(self):
        ctx = KernelContext()
        a = ctx.adversary("two_faced:evil")
        assert a is ctx.adversary("two_faced:evil")
        assert ctx.adversary("none") is None

    def test_fresh_bus_detaches_previous_sinks(self):
        ctx = KernelContext()
        bus = ctx.fresh_bus()
        bus.attach("evt", lambda *a: None)
        assert bus.probe("evt").emit is not None
        assert ctx.fresh_bus() is bus  # same object, re-armed
        assert bus.probe("evt").emit is None
        assert ctx.runs == 2

    def test_clear_drops_caches(self):
        ctx = KernelContext()
        ctx.topology("fully_timely", 4)
        ctx.adversary("crash")
        ctx.clear()
        assert "topologies=0" in repr(ctx) and "adversaries=0" in repr(ctx)

    def test_default_context_is_process_local_singleton(self):
        assert default_context() is default_context()

    def test_build_config_uses_context_caches(self):
        ctx = KernelContext()
        first = build_config(spec(), ctx)
        second = build_config(spec(seed=4), ctx)
        assert first.topology is second.topology
        assert (
            first.adversaries[4] is second.adversaries[4]
        )  # shared immutable AdversarySpec

    def test_run_scenario_identical_across_contexts(self):
        # A private context and the default context must produce
        # bit-identical outcomes — the context is pure reuse, not state.
        mine = run_scenario(spec(), context=KernelContext())
        default = run_scenario(spec())
        assert mine == default

    def test_consecutive_runs_do_not_leak_observers(self):
        # A traced run attaches sinks on the context bus; the next run
        # through the same context must start with a clean bus.
        ctx = KernelContext()
        from repro.orchestration.config import RunConfig
        from repro.orchestration.runner import run_consensus

        config = build_config(spec())
        traced = RunConfig(
            n=config.n, t=config.t, proposals=config.proposals,
            adversaries=config.adversaries, topology=config.topology,
            seed=config.seed, trace=True,
        )
        first = run_consensus(traced, context=ctx)
        assert len(first.trace.events) > 0
        second = run_consensus(traced, context=ctx)
        # Same trace length: the first run's tracer did not double up.
        assert len(second.trace.events) == len(first.trace.events)
        untraced = run_consensus(config, context=ctx)
        assert untraced.trace is None

    def test_handles_are_taken_per_task_step_not_per_message(self):
        # The object diet's count gate.  A message in flight on a
        # positive-delay channel is one heap entry and takes no handle,
        # so a sampled run takes handles for task steps only (the
        # handle-per-delivery path took 6 584 here).
        # Message recycling is the network's and is not touched.
        ctx = KernelContext()
        outcome = run_scenario(
            spec(n=10, t=3, topology="minimal", seed=411), context=ctx
        )
        assert outcome.messages_sent == 6570
        assert outcome.events_processed == 6488
        counters = ctx.pools.counters()
        handles = counters["pool_handles_created"] + counters["pool_handles_reused"]
        assert handles == 14
        assert counters["pool_messages_created"] == 331
        assert counters["pool_messages_reused"] == 6239
