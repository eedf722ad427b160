"""The metrics registry: counter families, label series, kernel-bus
arming, and the twin / export / merge round-trip a pool chunk makes."""

import json

import pytest

from repro.instrumentation import (
    NET_DELIVER,
    NET_SEND,
    SIM_STEP,
    InstrumentationBus,
)
from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_labelled_series_are_independent(self):
        c = Counter("requests")
        c.inc(source="cache")
        c.inc(2, source="executed")
        assert c.value(source="cache") == 1
        assert c.value(source="executed") == 2
        assert c.value(source="missing") == 0
        assert c.total() == 3

    def test_label_order_does_not_matter(self):
        c = Counter("x")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(a=1, b=2) == 2

    def test_cannot_decrease(self):
        c = Counter("x")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_snapshot_is_json_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z", help="last").inc(2)
        reg.counter("a").inc(tag="X")
        snap = reg.snapshot()
        assert list(snap) == ["a", "z"]
        assert snap["z"] == {
            "type": "counter", "help": "last",
            "series": [{"labels": {}, "value": 2.0}],
        }
        assert snap["a"]["series"] == [{"labels": {"tag": "X"}, "value": 1.0}]
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_twin_export_merge_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(tag="X")
        twin = reg.twin()
        assert len(twin) == 0
        twin.counter("a").inc(2, tag="X")
        twin.counter("b").inc()
        reg.merge_remote(twin.export())
        assert reg.counter("a").value(tag="X") == 3
        assert reg.counter("b").total() == 1


class _Msg:
    def __init__(self, tag):
        self.tag = tag


class TestKernelArming:
    def test_arm_attaches_the_three_kernel_sinks(self):
        reg = MetricsRegistry()
        bus = InstrumentationBus()
        reg.arm(bus)
        assert bus.probe(NET_SEND).emit is not None
        assert bus.probe(NET_DELIVER).emit is not None
        assert bus.probe(SIM_STEP).emit is not None
        bus.probe(NET_SEND).emit(_Msg("ECHO"), 1.0)
        bus.probe(NET_DELIVER).emit(_Msg("ECHO"), 2.0)
        bus.probe(SIM_STEP).emit(object())
        assert reg.counter(reg.KERNEL_SENT).value(tag="ECHO") == 1
        assert reg.counter(reg.KERNEL_DELIVERED).value(tag="ECHO") == 1
        assert reg.counter(reg.KERNEL_STEPS).value() == 1
        assert reg.counter(reg.KERNEL_RUNS).value() == 1
        assert reg.armed_runs == 1

    def test_unarmed_bus_keeps_emit_none(self):
        bus = InstrumentationBus()
        assert bus.probe(NET_SEND).emit is None
        assert bus.probe(SIM_STEP).emit is None

    def test_attach_many_arms_each_named_probe(self):
        bus = InstrumentationBus()
        seen = []
        bus.attach_many({"a": seen.append, "b": seen.append})
        bus.probe("a").emit(1)
        bus.probe("b").emit(2)
        assert seen == [1, 2]
