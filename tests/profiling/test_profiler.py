"""Unit tests for the virtual-time sweep profiler (:mod:`repro.profiling`).

Covers the accounting contract (phases sum to measured wall time under
a deterministic fake clock), the ``sim.step`` attribution rules, the
re-entrant wall window, and — the part that guards the fast path — that
an *unprofiled* sweep attaches no sink at all: the simulator's step
probe stays on its ``emit is None`` zero-cost branch.
"""

import json

import pytest

from repro.instrumentation import SIM_STEP, InstrumentationBus
from repro.net.messages import Message
from repro.orchestration.kernel import default_context
from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import sweep_serial
from repro.profiling import (
    HARNESS_PHASES,
    PHASE_BUILD_CONFIG,
    PHASE_JSONL,
    PHASE_REPORT,
    PHASE_SIMULATE,
    SweepProfiler,
)
from repro.sim.handles import EventHandle


class FakeClock:
    """Deterministic wall clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def small_matrix(seeds: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        sizes=[(4, 1)],
        topologies=["single_bisource"],
        adversaries=["crash"],
        value_counts=[2],
        seeds=range(seeds),
        base_seed=7,
    )


class TestPhaseAccounting:
    def test_phases_sum_exactly_to_wall_under_fake_clock(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock, sim_steps=False)
        profiler.start()
        with profiler.phase("expand"):
            clock.advance(1.0)
        with profiler.phase("simulate"):
            clock.advance(2.5)
        with profiler.phase("simulate"):
            clock.advance(0.5)
        profiler.stop()
        assert profiler.wall_seconds == pytest.approx(4.0)
        assert profiler.phase_seconds("expand") == pytest.approx(1.0)
        assert profiler.phase_seconds("simulate") == pytest.approx(3.0)
        assert profiler.phases["simulate"].calls == 2
        total = sum(s.seconds for s in profiler.phases.values())
        assert total == pytest.approx(profiler.wall_seconds)
        assert profiler.coverage() == pytest.approx(1.0)

    def test_unaccounted_time_lowers_coverage(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock, sim_steps=False)
        profiler.start()
        with profiler.phase("simulate"):
            clock.advance(3.0)
        clock.advance(1.0)  # harness work nobody timed
        profiler.stop()
        assert profiler.coverage() == pytest.approx(0.75)

    def test_add_credits_external_time(self):
        profiler = SweepProfiler(clock=FakeClock(), sim_steps=False)
        profiler.add(PHASE_SIMULATE, 2.0, calls=8)
        profiler.add(PHASE_SIMULATE, 1.0, calls=4)
        assert profiler.phase_seconds(PHASE_SIMULATE) == pytest.approx(3.0)
        assert profiler.phases[PHASE_SIMULATE].calls == 12

    def test_coverage_is_zero_without_a_window(self):
        profiler = SweepProfiler(clock=FakeClock(), sim_steps=False)
        profiler.add("simulate", 1.0)
        assert profiler.coverage() == 0.0

    def test_measuring_window_is_reentrant(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock, sim_steps=False)
        with profiler.measuring():
            clock.advance(1.0)
            with profiler.measuring():  # inner scope must not close it
                clock.advance(1.0)
            clock.advance(1.0)
        assert profiler.wall_seconds == pytest.approx(3.0)

    def test_start_is_idempotent_while_open(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock, sim_steps=False)
        profiler.start()
        clock.advance(1.0)
        profiler.start()  # must not reset the open window
        clock.advance(1.0)
        assert profiler.stop() == pytest.approx(2.0)


def _handle(callback, args=()):
    return EventHandle(0.0, 0, callback, args)


def _message_handle(tag: str) -> EventHandle:
    message = Message(1, 2, tag, None, 0.0, 0)
    return _handle(lambda m: None, (message,))


class TestStepSink:
    def test_attributes_gap_to_the_previous_event(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock)
        bus = InstrumentationBus()
        profiler.arm(bus)
        emit = bus.probe(SIM_STEP).emit
        assert emit is not None
        emit(_message_handle("RB_ECHO"))
        clock.advance(2.0)
        emit(_message_handle("RB_ECHO"))
        clock.advance(1.0)
        emit(_message_handle("RB_READY"))
        snapshot = profiler.to_dict()
        labels = snapshot["sim"]["labels"]
        assert labels["tag:RB_ECHO"]["seconds"] == pytest.approx(3.0)
        assert labels["tag:RB_ECHO"]["events"] == 2
        # The final event's own execution window is dropped, not
        # attributed to post-run harness work.
        assert labels["tag:RB_READY"]["seconds"] == pytest.approx(0.0)
        assert snapshot["sim"]["events"] == 3

    def test_non_message_events_use_the_callback_qualname(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock)
        bus = InstrumentationBus()
        profiler.arm(bus)
        emit = bus.probe(SIM_STEP).emit

        def timer_fire():
            pass

        emit(_handle(timer_fire))
        clock.advance(1.0)
        emit(_handle(timer_fire))
        [label] = [
            name for name in profiler.sim_labels if "timer_fire" in name
        ]
        assert profiler.sim_labels[label].seconds == pytest.approx(1.0)

    def test_rearm_resets_pending_attribution(self):
        clock = FakeClock()
        profiler = SweepProfiler(clock=clock)
        bus = InstrumentationBus()
        profiler.arm(bus)
        bus.probe(SIM_STEP).emit(_message_handle("RB_INIT"))
        clock.advance(5.0)  # inter-run harness time
        bus.clear()
        profiler.arm(bus)  # next run: must not book the 5s to RB_INIT
        bus.probe(SIM_STEP).emit(_message_handle("RB_INIT"))
        clock.advance(1.0)
        bus.probe(SIM_STEP).emit(_message_handle("RB_INIT"))
        assert profiler.sim_labels["tag:RB_INIT"].seconds == pytest.approx(1.0)
        assert profiler.runs == 2

    def test_sim_steps_false_attaches_no_sink(self):
        profiler = SweepProfiler(clock=FakeClock(), sim_steps=False)
        bus = InstrumentationBus()
        profiler.arm(bus)
        assert bus.probe(SIM_STEP).emit is None


class TestZeroCostWhenDisabled:
    def test_unprofiled_sweep_attaches_no_step_sink(self):
        context = default_context()
        assert context.instruments == ()
        sweep_serial(small_matrix())
        # After the sweep the context bus must be back to the zero-cost
        # idle state: the step probe compiled its emit path to None.
        assert context.bus.probe(SIM_STEP).emit is None

    def test_profiled_sweep_detaches_on_exit(self):
        context = default_context()
        profiler = SweepProfiler()
        sweep_serial(small_matrix(), profiler=profiler)
        assert context.instruments == ()
        assert profiler.sim_events > 0
        assert profiler.runs == 2

    def test_profiler_detaches_even_when_the_sweep_raises(self):
        context = default_context()
        profiler = SweepProfiler()
        with pytest.raises(TypeError):
            sweep_serial(object(), profiler=profiler)  # not iterable
        assert context.instruments == ()


class TestProfiledSweep:
    def test_phases_cover_at_least_90_percent_of_wall(self, tmp_path):
        profiler = SweepProfiler()
        sweep = sweep_serial(small_matrix(3), profiler=profiler)
        sweep.write_jsonl(tmp_path / "out.jsonl", profiler=profiler)
        assert profiler.coverage() >= 0.90
        assert profiler.phase_seconds(PHASE_SIMULATE) > 0
        assert profiler.phases[PHASE_BUILD_CONFIG].calls == 3
        assert profiler.phases[PHASE_JSONL].calls == 1
        # report_construct: one per scenario plus the final aggregation.
        assert profiler.phases[PHASE_REPORT].calls == 4

    def test_sim_labels_break_down_the_simulate_phase(self):
        profiler = SweepProfiler()
        sweep_serial(small_matrix(), profiler=profiler)
        label_total = sum(s.seconds for s in profiler.sim_labels.values())
        assert 0 < label_total <= profiler.phase_seconds(PHASE_SIMULATE)
        assert any(name.startswith("tag:") for name in profiler.sim_labels)

    def test_render_and_to_dict_are_consistent(self):
        profiler = SweepProfiler()
        sweep_serial(small_matrix(), profiler=profiler)
        text = profiler.render()
        assert "simulate" in text and "(measured wall)" in text
        snapshot = json.loads(json.dumps(profiler.to_dict()))
        assert set(snapshot["phases"]) <= set(HARNESS_PHASES)
        assert snapshot["sim"]["events"] == profiler.sim_events
        assert snapshot["coverage"] == pytest.approx(
            profiler.coverage(), abs=1e-3
        )
