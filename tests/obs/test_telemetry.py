"""SweepTelemetry: the sweep's outcome hook, and the zero-cost guarantee."""

import pytest

from repro.obs.events import (
    EVENT_CACHE_HIT,
    EVENT_CACHE_MISS,
    EVENT_SWEEP_FINISHED,
    EVENT_SWEEP_STARTED,
    EVENT_UNIT_CLAIMED,
    EVENT_UNIT_COMPLETED,
    EventLedger,
    read_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SweepTelemetry
from repro.orchestration.dispatch import plan_dispatch, run_claims
from repro.orchestration.matrix import ScenarioMatrix
from repro.orchestration.parallel import sweep_serial
from repro.store import ResultCache
from repro.store.shards import write_shard


@pytest.fixture
def matrix():
    return ScenarioMatrix(sizes=[(4, 1)], seeds=range(2), base_seed=7)


def observed_by(telemetry):
    """The sweep kwargs that feed ``telemetry``."""
    return {"on_result": telemetry.on_result, "metrics": telemetry.metrics}


def make_telemetry(tmp_path, **kwargs):
    ledger = EventLedger(
        tmp_path / "events.jsonl", run_id="r1", worker="w0"
    )
    return SweepTelemetry(
        ledger=ledger, metrics=MetricsRegistry(), **kwargs
    )


class TestObservedSweep:
    def test_sweep_records_events_and_metrics(self, tmp_path, matrix):
        telemetry = make_telemetry(tmp_path)
        telemetry.sweep_started(total=len(matrix.expand()))
        result = sweep_serial(matrix, **observed_by(telemetry))
        telemetry.sweep_finished(result)
        telemetry.ledger.close()

        records = list(read_events(tmp_path / "events.jsonl"))
        assert [r["type"] for r in records] == [
            EVENT_SWEEP_STARTED, EVENT_CACHE_MISS, EVENT_CACHE_MISS,
            EVENT_SWEEP_FINISHED,
        ]
        assert telemetry.scenarios == 2 and telemetry.cache_hits == 0
        # The kernel counters were armed on the bus and actually counted.
        snap = telemetry.metrics.snapshot()
        assert snap["kernel.runs"]["series"][0]["value"] == 2
        assert snap["sweep.scenarios"]["series"][0]["value"] == 2
        # The finish record embeds the snapshot for post-hoc queries.
        assert records[-1]["metrics"]["kernel.runs"] == snap["kernel.runs"]

    def test_cache_hits_are_distinguished(self, tmp_path, matrix):
        cache = ResultCache(tmp_path / "store")
        sweep_serial(matrix, cache=cache)  # warm the store
        telemetry = make_telemetry(tmp_path)
        sweep_serial(matrix, cache=cache, **observed_by(telemetry))
        telemetry.ledger.close()

        assert telemetry.cache_hits == 2
        types = [
            r["type"] for r in read_events(tmp_path / "events.jsonl")
        ]
        assert types == [EVENT_CACHE_HIT, EVENT_CACHE_HIT]
        counter = telemetry.metrics.counter("sweep.scenarios")
        assert counter.value(source="cache") == 2
        assert counter.value(source="executed") == 0

    def test_all_sinks_optional(self, matrix):
        # A bare telemetry object still counts scenarios and crashes on
        # nothing — every sink is independently optional.
        telemetry = SweepTelemetry()
        sweep_serial(matrix, **observed_by(telemetry))
        assert telemetry.scenarios == 2


class TestZeroCost:
    def test_observed_and_unobserved_shards_are_byte_identical(
        self, tmp_path, matrix
    ):
        plain = sweep_serial(matrix)
        observed = sweep_serial(
            matrix, **observed_by(make_telemetry(tmp_path))
        )
        a = write_shard(plain.outcomes, tmp_path / "plain.jsonl")
        b = write_shard(observed.outcomes, tmp_path / "observed.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_unobserved_sweep_reports_no_armed_runs(self, matrix):
        # Observing one sweep must not leak sinks into the next: a fresh
        # registry observing after a plain sweep sees only its own runs.
        sweep_serial(matrix)
        registry = MetricsRegistry()
        sweep_serial(matrix, **observed_by(SweepTelemetry(metrics=registry)))
        assert registry.armed_runs == 2


class TestDispatchIntegration:
    def test_run_claims_threads_telemetry_through(self, tmp_path, matrix):
        plan = plan_dispatch(matrix, tmp_path / "d", units=2)
        telemetry = make_telemetry(tmp_path)
        done = run_claims(
            plan, "w0", telemetry=telemetry, heartbeat_interval=0
        )
        telemetry.ledger.close()

        assert len(done) == 2
        types = [
            r["type"] for r in read_events(tmp_path / "events.jsonl")
        ]
        assert types == [
            EVENT_UNIT_CLAIMED, EVENT_CACHE_MISS,
            EVENT_UNIT_COMPLETED,
            EVENT_UNIT_CLAIMED, EVENT_CACHE_MISS,
            EVENT_UNIT_COMPLETED,
        ]
        units = telemetry.metrics.counter("sweep.units")
        assert units.value(state="done") == 2
