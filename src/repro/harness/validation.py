"""Standalone MPPT correctness validation (the paper's Simulink step).

Section 5: "We validated the correctness of the maximal power point
tracking algorithm using MATLAB and Simulink before incorporating it into
our architecture simulator."  This module is that gate, in-repo: it sweeps
the controller over a grid of environmental conditions and workload states
and checks the invariants a correct tracker must satisfy —

  * never draws more than the panel's true MPP power,
  * converges into the margin band below the MPP (unless the chip
    saturates first),
  * leaves the rail voltage near nominal,
  * is stable: re-tracking under unchanged conditions stays put.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.load_tuning import make_tuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp
from repro.workloads.mixes import mix

__all__ = ["ValidationCase", "ValidationReport", "validate_mppt"]

#: Environmental grid: (irradiance, cell temperature) pairs.
DEFAULT_CONDITIONS = (
    (1000.0, 55.0), (900.0, 50.0), (750.0, 45.0), (600.0, 40.0),
    (450.0, 35.0), (300.0, 28.0), (200.0, 22.0),
)


@dataclass(frozen=True)
class ValidationCase:
    """One validated grid point.

    Attributes:
        mix_name: Workload on the chip.
        policy: Load-adaptation policy.
        irradiance: Condition irradiance [W/m^2].
        cell_temp_c: Condition cell temperature [C].
        mpp_power: True MPP power [W].
        tracked_power: Power after the tracking event [W].
        rail_voltage: Rail voltage after tracking [V].
        saturated: Whether the chip hit its top levels below the MPP.
        floor_limited: Whether even the chip's minimum configuration
            exceeds the panel's MPP (a state the transfer switch prevents
            during operation — only the no-overdraw invariant applies).
        retrack_drift: |power change| of an immediate re-track [W].
    """

    mix_name: str
    policy: str
    irradiance: float
    cell_temp_c: float
    mpp_power: float
    tracked_power: float
    rail_voltage: float
    saturated: bool
    floor_limited: bool
    retrack_drift: float

    @property
    def efficiency(self) -> float:
        """Tracked / true MPP power."""
        if self.mpp_power <= 0:
            return 0.0
        return self.tracked_power / self.mpp_power

    def passes(self, config: SolarCoreConfig) -> bool:
        """Whether this case satisfies every tracker invariant."""
        if self.tracked_power > self.mpp_power * (1.0 + 1e-6):
            return False
        if self.floor_limited:
            return True
        if not self.saturated:
            floor = 1.0 - config.power_margin - 0.12  # margin + quantization
            if self.efficiency < floor:
                return False
            if abs(self.rail_voltage - config.rail_voltage) > 6 * config.rail_tolerance_v:
                return False
        if self.retrack_drift > 0.15 * max(self.tracked_power, 1.0):
            return False
        return True


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation sweep.

    Attributes:
        cases: Every validated grid point.
        config: The configuration validated against.
    """

    cases: tuple[ValidationCase, ...]
    config: SolarCoreConfig

    @property
    def failures(self) -> list[ValidationCase]:
        """Cases violating a tracker invariant."""
        return [case for case in self.cases if not case.passes(self.config)]

    @property
    def all_pass(self) -> bool:
        """True when every case satisfies the invariants."""
        return not self.failures

    @property
    def mean_efficiency(self) -> float:
        """Mean tracked/MPP ratio over non-saturated cases."""
        values = [c.efficiency for c in self.cases if not c.saturated]
        if not values:
            return 1.0
        return sum(values) / len(values)


def validate_mppt(
    mixes: tuple[str, ...] = ("H1", "L1", "HM2"),
    policies: tuple[str, ...] = ("MPPT&Opt",),
    conditions: tuple[tuple[float, float], ...] = DEFAULT_CONDITIONS,
    config: SolarCoreConfig | None = None,
) -> ValidationReport:
    """Sweep the controller over a validation grid.

    Args:
        mixes: Workload mixes to validate under.
        policies: Load-adaptation policies to validate.
        conditions: (irradiance, cell temperature) grid.
        config: Controller configuration.

    Returns:
        A :class:`ValidationReport`; callers assert ``report.all_pass``.
    """
    cfg = config or SolarCoreConfig()
    array = PVArray()
    cases = []
    for mix_name in mixes:
        for policy in policies:
            chip = MultiCoreChip(mix(mix_name), spec=cfg.chip_spec)
            chip.set_all_min()
            controller = SolarCoreController(
                array,
                DCDCConverter(),
                chip,
                make_tuner(policy, cfg.enable_pcpg),
                cfg,
            )
            for irradiance, temp in conditions:
                mpp = find_mpp(array, irradiance, temp)
                floor = chip.floor_power_at(120.0, with_gating=cfg.enable_pcpg)
                result = controller.track(irradiance, temp, 120.0, mpp)
                retrack = controller.track(irradiance, temp, 120.0, mpp)
                cases.append(
                    ValidationCase(
                        mix_name=mix_name,
                        policy=policy,
                        irradiance=irradiance,
                        cell_temp_c=temp,
                        mpp_power=mpp.power,
                        tracked_power=result.power_w,
                        rail_voltage=result.rail_voltage,
                        saturated=result.load_saturated,
                        floor_limited=floor > mpp.power,
                        retrack_drift=abs(retrack.power_w - result.power_w),
                    )
                )
    return ValidationReport(cases=tuple(cases), config=cfg)
