"""Deterministic fault injection for the SolarCore simulation stack.

The paper's whole premise (Section 2, Figure 8) is a chip riding an
unreliable, battery-less supply — the ATS and UPS exist precisely
because the PV side fails.  This package makes those failures first
class: a seeded :class:`FaultSchedule` of timed windows (sensor
dropout/stuck/bias/noise, PV string loss, soiling, converter
degradation, stuck transfer-ratio knob, ATS transfer failures and
latency, missing trace samples), a per-run :class:`FaultScheduler`
driven by the unified :class:`~repro.core.engine.DayEngine`, and
component wrappers (:mod:`repro.faults.injectors`) that misbehave only
inside their windows.

The contract enforced by ``tests/faults``: an **empty schedule is
provably free** (byte-identical results to a run with no schedule at
all), and a seeded schedule **replays deterministically** across
serial, parallel, and cached execution.

Usage::

    from repro.core.simulation import run_day
    from repro.environment.locations import location_by_code

    day = run_day(
        "HM2", location_by_code("AZ"), 7,
        faults="sensor_dropout@600-660,soiling@480-:0.85,seed=7",
    )
"""

from __future__ import annotations

from repro.faults.injectors import (
    FaultyArray,
    FaultyATS,
    FaultyConverter,
    FaultySensor,
)
from repro.faults.schedule import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.faults.scheduler import FaultScheduler

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultSchedule",
    "FaultScheduler",
    "FaultyArray",
    "FaultySensor",
    "FaultyConverter",
    "FaultyATS",
    "FaultKit",
    "build_fault_kit",
]

#: Fault kinds acting on the I/V sensor front-end.
SENSOR_KINDS = ("sensor_dropout", "sensor_stuck", "sensor_bias", "sensor_noise")
#: Fault kinds acting on the PV generator.
ARRAY_KINDS = ("pv_string",)
#: Fault kinds acting on the irradiance that reaches the panel.
IRRADIANCE_KINDS = ("trace_gap", "soiling")
#: Fault kinds acting on the DC/DC stage.
CONVERTER_KINDS = ("conv_eff", "k_stuck")
#: Fault kinds acting on the transfer switch.
ATS_KINDS = ("ats_stuck", "ats_latency")


class FaultKit:
    """Everything a ``*_day_engine`` factory needs to wire one schedule.

    Wraps only the components the schedule actually touches, so a
    sensor-only schedule leaves the array, converter, and ATS pristine.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.scheduler = FaultScheduler(schedule)

    @property
    def solves_each_step(self) -> bool:
        """Whether the day re-solves its MPP at every step: the schedule
        changes the irradiance the panel sees, or the array itself, so
        the cell's shared environment does not describe this day."""
        return self.scheduler.has(*IRRADIANCE_KINDS, *ARRAY_KINDS)

    def wrap_array(self, array):
        """The (possibly wrapped) PV generator."""
        if self.scheduler.has(*ARRAY_KINDS):
            return FaultyArray(array, self.scheduler)
        return array

    def wrap_sensor(self, sensor):
        """The (possibly wrapped) I/V sensor; None stays None when the
        schedule has no sensor faults (the policy builds its default)."""
        if not self.scheduler.has(*SENSOR_KINDS):
            return sensor
        from repro.power.sensors import IVSensor

        return FaultySensor(sensor or IVSensor(), self.scheduler)

    def make_converter(self):
        """A faulty DC/DC stage, or None when the schedule has no
        converter faults (the policy builds its default)."""
        if self.scheduler.has(*CONVERTER_KINDS):
            return FaultyConverter(self.scheduler)
        return None


def build_fault_kit(faults) -> FaultKit | None:
    """Normalize a faults argument into a :class:`FaultKit`.

    Accepts a spec string, a :class:`FaultSchedule`, or None; empty
    schedules yield None so every downstream hook stays on its
    fault-free fast path (the byte-identity guarantee).
    """
    if faults is None:
        return None
    if isinstance(faults, str):
        faults = FaultSchedule.parse(faults)
    if not isinstance(faults, FaultSchedule):
        raise TypeError(
            f"faults must be a spec string or FaultSchedule, got {type(faults).__name__}"
        )
    if not faults:
        return None
    return FaultKit(faults)
