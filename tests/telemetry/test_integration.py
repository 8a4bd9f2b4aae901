"""Integration: a simulated day observed end-to-end through telemetry."""

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.simulation import run_day
from repro.environment.locations import PHOENIX_AZ
from repro.telemetry import (
    NULL_TELEMETRY,
    RingBufferSink,
    Telemetry,
    current,
    telemetry_session,
)

# Coarse cadence keeps the instrumented day fast; the counts below are
# cadence-independent identities, not golden values.
CFG = SolarCoreConfig(step_minutes=5.0)


@pytest.fixture()
def traced_day():
    sink = RingBufferSink(capacity=100_000)
    with telemetry_session(sinks=[sink]) as hub:
        day = run_day("HM2", PHOENIX_AZ, 7, config=CFG)
        snap = hub.snapshot()
    return day, sink, snap


class TestRunDayTelemetry:
    def test_tracking_counter_matches_day_result(self, traced_day):
        day, sink, snap = traced_day
        assert day.tracking_events > 0
        assert snap["counters"]["sim.tracking_events"] == day.tracking_events
        assert len(sink.events("tracking")) == day.tracking_events

    def test_dvfs_counter_matches_day_result(self, traced_day):
        day, _, snap = traced_day
        assert snap["counters"]["sim.dvfs_transitions"] == day.dvfs_transitions

    def test_supply_switches_recorded(self, traced_day):
        day, sink, snap = traced_day
        switches = sink.events("supply_switch")
        assert snap["counters"]["sim.supply_switches"] == len(switches)
        assert {e.source for e in switches} <= {"solar", "utility"}

    def test_load_tuning_events_per_tracking_event(self, traced_day):
        day, sink, _ = traced_day
        assert len(sink.events("load_tuning")) == day.tracking_events

    def test_tracking_records_are_plausible(self, traced_day):
        day, sink, _ = traced_day
        for event in sink.events("tracking"):
            assert event.mix == "HM2"
            assert event.iterations >= 1
            assert event.power_w >= 0.0
            assert 0.0 <= event.tracking_error < 1.0

    def test_spans_cover_hot_paths(self, traced_day):
        _, _, snap = traced_day
        timers = snap["timers"]
        assert timers["run_day"]["count"] == 1
        assert timers["controller.track"]["count"] > 0
        # controller.track nests inside run_day, so its total is bounded
        # and run_day's self time excludes it.
        assert timers["controller.track"]["total"] <= timers["run_day"]["total"]
        assert (
            timers["run_day"]["self_s"]
            <= timers["run_day"]["total"] - timers["controller.track"]["total"] + 1e-9
        )

    def test_iteration_histogram_populated(self, traced_day):
        day, _, snap = traced_day
        hist = snap["histograms"]["controller.track_iterations"]
        assert hist["count"] == day.tracking_events
        assert hist["max"] >= 1

    def test_session_restored_after_run(self, traced_day):
        assert current() is NULL_TELEMETRY


class TestInjectedTelemetry:
    def test_explicit_hub_bypasses_process_global(self):
        sink = RingBufferSink()
        hub = Telemetry(sinks=[sink])
        day = run_day("HM2", PHOENIX_AZ, 7, config=CFG, telemetry=hub)
        assert current() is NULL_TELEMETRY  # global never touched
        assert len(sink.events("tracking")) == day.tracking_events

    def test_disabled_run_produces_identical_result(self):
        plain = run_day("HM2", PHOENIX_AZ, 7, config=CFG)
        with telemetry_session():
            traced = run_day("HM2", PHOENIX_AZ, 7, config=CFG)
        assert traced.energy_utilization == plain.energy_utilization
        assert traced.tracking_events == plain.tracking_events
        assert traced.dvfs_transitions == plain.dvfs_transitions
