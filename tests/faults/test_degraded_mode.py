"""Graceful degradation of the controller under sensor dropouts.

The ladder under test (DESIGN.md section 10):

1. Fresh dropout — the last good reading substitutes, tracking proceeds.
2. Stale dropout (past ``sensor_staleness_min``) — the event falls back
   to a conservative degraded-mode budget and sheds load to fit it.
3. Readings return — the controller recovers on the next good read.
"""

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.load_tuning import make_tuner
from repro.faults import FaultSchedule, FaultScheduler, FaultySensor
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.power.sensors import IVSensor
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.telemetry import NULL_TELEMETRY, RingBufferSink, telemetry_session
from repro.workloads.mixes import mix


def make_faulty_controller(spec: str, **config_kwargs):
    """A controller whose sensor obeys the given fault schedule; the
    returned scheduler's ``begin_step`` stands in for the engine loop."""
    scheduler = FaultScheduler(FaultSchedule.parse(spec))
    config = SolarCoreConfig(**config_kwargs)
    chip = MultiCoreChip(mix("HM2"))
    chip.set_all_levels(0)
    controller = SolarCoreController(
        PVArray(),
        DCDCConverter(),
        chip,
        make_tuner("MPPT&Opt", config.enable_pcpg),
        config,
        sensor=FaultySensor(IVSensor(), scheduler),
    )
    return controller, scheduler, chip


def step_and_track(controller, scheduler, minute, irradiance=800.0, temp=40.0):
    scheduler.begin_step(minute, irradiance, NULL_TELEMETRY)
    mpp = find_mpp(controller.array, irradiance, temp)
    return controller.track(irradiance, temp, minute, mpp)


class TestHoldLastGood:
    SPEC = "sensor_dropout@101-"

    def test_fresh_dropout_rides_on_held_reading(self):
        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        step_and_track(controller, scheduler, 100.0)
        result = step_and_track(controller, scheduler, 103.0)
        assert not controller.degraded
        assert result.power_w > 0.0

    def test_stale_reads_counted(self):
        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        with telemetry_session() as tel:
            step_and_track(controller, scheduler, 100.0)
            step_and_track(controller, scheduler, 103.0)
            snap = tel.snapshot()
        assert snap["counters"]["controller.stale_reads"] > 0
        assert "controller.degraded_tracks" not in snap["counters"]

    def test_staleness_cap_is_configurable(self):
        controller, scheduler, _ = make_faulty_controller(
            self.SPEC, sensor_staleness_min=20.0
        )
        step_and_track(controller, scheduler, 100.0)
        step_and_track(controller, scheduler, 115.0)
        assert not controller.degraded


class TestDegradedEntry:
    SPEC = "sensor_dropout@101-600"

    def test_stale_sensor_enters_degraded_mode(self):
        controller, scheduler, chip = make_faulty_controller(self.SPEC)
        step_and_track(controller, scheduler, 100.0)
        result = step_and_track(controller, scheduler, 120.0)
        assert controller.degraded
        assert result.iterations == 0
        # The enforced budget covers the allocation that was left running.
        assert result.power_w <= result.best_power_w + 1e-9
        assert result.power_w == pytest.approx(chip.total_power_at(120.0))

    def test_budget_is_fraction_of_last_good_power(self):
        controller, scheduler, chip = make_faulty_controller(
            self.SPEC, degraded_budget_fraction=0.5
        )
        good = step_and_track(controller, scheduler, 100.0)
        degraded = step_and_track(controller, scheduler, 120.0)
        floor = chip.floor_power_at(120.0, with_gating=True)
        assert degraded.best_power_w >= max(0.5 * good.power_w, floor) - 1e-9
        # Degraded consumption sits well below the healthy allocation.
        assert degraded.power_w < good.power_w

    def test_degraded_event_emitted_with_budget(self):
        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        sink = RingBufferSink()
        with telemetry_session(sinks=[sink]) as tel:
            step_and_track(controller, scheduler, 100.0)
            step_and_track(controller, scheduler, 120.0)
            snap = tel.snapshot()
        (event,) = sink.events("degraded_mode")
        assert event.reason == "sensor-stale"
        assert event.minute == 120.0
        assert event.stale_min == pytest.approx(20.0)
        assert event.allocated_w <= event.budget_w + 1e-9
        assert snap["counters"]["controller.degraded_tracks"] == 1

    def test_never_tracked_controller_degrades_to_floor(self):
        """A dropout before the first good reading: budget = chip floor."""
        controller, scheduler, chip = make_faulty_controller("sensor_dropout@0-")
        result = step_and_track(controller, scheduler, 50.0)
        assert controller.degraded
        assert result.power_w == pytest.approx(chip.total_power_at(50.0))

    def test_repeat_degraded_tracks_log_once(self, caplog):
        import logging

        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        step_and_track(controller, scheduler, 100.0)
        with caplog.at_level(logging.WARNING, logger="repro.core.controller"):
            step_and_track(controller, scheduler, 120.0)
            step_and_track(controller, scheduler, 130.0)
        assert caplog.text.count("degraded mode") == 1


class TestRecovery:
    SPEC = "sensor_dropout@101-600"

    def test_good_reading_ends_the_episode(self):
        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        step_and_track(controller, scheduler, 100.0)
        step_and_track(controller, scheduler, 120.0)
        assert controller.degraded
        result = step_and_track(controller, scheduler, 610.0)
        assert not controller.degraded
        assert result.iterations > 0

    def test_recovery_event_emitted(self):
        controller, scheduler, _ = make_faulty_controller(self.SPEC)
        sink = RingBufferSink()
        with telemetry_session(sinks=[sink]) as tel:
            step_and_track(controller, scheduler, 100.0)
            step_and_track(controller, scheduler, 120.0)
            step_and_track(controller, scheduler, 610.0)
            snap = tel.snapshot()
        recoveries = [
            e for e in sink.events("recovery") if e.source == "controller"
        ]
        assert recoveries
        assert recoveries[0].minute == 610.0
        assert snap["counters"]["controller.recoveries"] == 1
