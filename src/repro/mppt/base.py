"""Conventional MPPT algorithm interface (paper references [3], [32], [33]).

These trackers adjust only the converter's transfer ratio ``k`` against a
*fixed* electrical load — the classic hill-climbing family the paper
contrasts with SolarCore's joint (k, w) optimization.  They demonstrate the
paper's Section 2.3 point: transfer-ratio tuning alone can pin the panel at
its MPP, but without load adaptation the recovered power does not translate
into processor performance.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.power.converter import DCDCConverter
from repro.power.operating_point import OperatingPoint, solve_operating_point
from repro.pv.curves import PVDevice
from repro.telemetry import hub as telemetry_hub

__all__ = ["MPPTAlgorithm", "TrackerRun", "run_tracker"]

log = logging.getLogger(__name__)


class MPPTAlgorithm(ABC):
    """A hill-climbing tracker driving one converter knob."""

    name: str = "abstract"

    def __init__(self, converter: DCDCConverter) -> None:
        self.converter = converter

    @abstractmethod
    def step(self, point: OperatingPoint) -> None:
        """Observe the operating point and move ``k`` by one decision."""

    def reset(self) -> None:
        """Clear any internal observation history (default: stateless)."""


@dataclass(frozen=True)
class TrackerRun:
    """Outcome of running a tracker over an irradiance profile.

    Attributes:
        name: Tracker name.
        powers: Power drawn at each control step [W].
        mpp_powers: True MPP power at each control step [W].
    """

    name: str
    powers: list[float]
    mpp_powers: list[float]

    @property
    def tracking_efficiency(self) -> float:
        """Total energy drawn / total MPP energy over the run."""
        total_mpp = sum(self.mpp_powers)
        if total_mpp <= 0.0:
            return 0.0
        return sum(self.powers) / total_mpp


def run_tracker(
    tracker: MPPTAlgorithm,
    device: PVDevice,
    load_resistance: float,
    profile: list[tuple[float, float]],
    steps_per_condition: int = 25,
) -> TrackerRun:
    """Drive a tracker across an (irradiance, temperature) profile.

    The tracker takes ``steps_per_condition`` control decisions at each
    environmental condition — modelling a control loop much faster than the
    weather.

    Args:
        tracker: The algorithm under test (owns its converter).
        device: PV module or array.
        load_resistance: The fixed load at the converter output [ohm].
        profile: Sequence of (irradiance, cell temperature) conditions.
        steps_per_condition: Control decisions per condition.

    Returns:
        A :class:`TrackerRun` with per-step drawn and available power.
    """
    from repro.pv.mpp import find_mpp

    tel = telemetry_hub.current()
    powers: list[float] = []
    mpp_powers: list[float] = []
    with tel.span("mppt.run_tracker"):
        for irradiance, temp in profile:
            mpp_power = find_mpp(device, irradiance, temp).power
            for _ in range(steps_per_condition):
                point = solve_operating_point(
                    device, tracker.converter, load_resistance, irradiance, temp
                )
                tracker.step(point)
                after = solve_operating_point(
                    device, tracker.converter, load_resistance, irradiance, temp
                )
                powers.append(after.pv_power)
                mpp_powers.append(mpp_power)
        if tel.enabled:
            tel.count("mppt.steps", len(powers))
    run = TrackerRun(tracker.name, powers, mpp_powers)
    log.debug(
        "run_tracker %s: %d steps, tracking efficiency %.1f%%",
        tracker.name, len(powers), 100.0 * run.tracking_efficiency,
    )
    return run
