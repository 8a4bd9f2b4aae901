"""Configuration of the SolarCore power-management system."""

from __future__ import annotations

from dataclasses import dataclass

from repro.multicore.chip import NOMINAL_RAIL_V
from repro.multicore.spec import ChipSpec

__all__ = ["SolarCoreConfig"]


@dataclass(frozen=True)
class SolarCoreConfig:
    """Tunable parameters of the SolarCore controller and simulation.

    Attributes:
        rail_voltage: Nominal converter-output (chip rail) voltage [V]
            (the paper's ``Vdd`` target of the MPPT loop).
        rail_tolerance_v: Acceptance band around the nominal rail voltage
            during load matching [V].
        tracking_interval_min: Minutes between periodic MPPT triggers
            (paper: 10 minutes).
        supply_change_fraction: Relative MPP-power change since the last
            event that triggers an early (non-periodic) tracking event, or
            None for strictly periodic tracking (the paper's methodology).
        power_margin: Fractional backoff below the discovered maximum power
            (the paper's stabilizing power margin, Section 6.1).
        max_track_iterations: Safety bound on combined (k, w) tuning steps
            within one tracking event.
        step_minutes: Simulation time step [minutes].
        ats_margin: Headroom fraction the transfer switch requires before
            engaging solar (hysteresis).
        sensor_averaging: Number of I/V sensor samples averaged per
            controller reading (1 = raw).  Real MPPT front-ends average
            ADC bursts; the sensor-noise ablation shows why.
        adaptive_margin: Size the power margin from a short-horizon supply
            forecast (see :mod:`repro.core.forecast`) instead of the fixed
            ``power_margin`` — shrinking it on calm days, keeping it under
            volatility.  ``power_margin`` remains the conservative ceiling.
        adaptive_margin_floor: Smallest margin the forecaster may choose.
        realloc_after_track: After each tracking event, globally reallocate
            per-core levels under the discovered budget (the LP-style
            scheduling of the paper's ref [15]) instead of keeping the
            incrementally tuned assignment.  Off by default — the ablation
            quantifies the difference.
        enable_pcpg: Allow per-core power gating as a load-adaptation knob
            below the bottom DVFS level (paper Section 4: DVFS and PCPG
            are both load-adaptation knobs).  Disabling it is explored as
            an ablation.
        sensor_staleness_min: Graceful degradation: how long [minutes] a
            held-last-good sensor reading may substitute for a live one
            before the controller stops trusting it and enters degraded
            mode (DESIGN.md section 10).
        degraded_budget_fraction: Conservative power budget used in
            degraded mode, as a fraction of the last good power reading
            (floored at the chip's minimum sustainable configuration).
        solver: Electrical solver mode.  ``"exact"`` (default) runs the
            per-step Lambert-W/brentq solvers and is byte-identical to
            the golden fixtures; ``"table"`` answers MPP and
            operating-point queries from the precomputed interpolation
            surfaces of :mod:`repro.power.surface` (within their
            measured error bound) and unlocks the batched day engine.
            Devices the surfaces cannot represent (fault-injected
            arrays, shaded strings) fall back to exact with a warning.
        chip_spec: The chip the policies simulate, as a
            :class:`~repro.multicore.spec.ChipSpec` string — a preset
            name (``alpha8``, ``biglittle``, ``hetero3``, ``little8``)
            or the mix grammar (``big*4+little*4@45nm:cons``).  Stored
            in canonical form, so equal chips compare (and cache-key)
            equal; the default ``alpha8`` is the paper's homogeneous
            8-core chip, byte-identical to the pre-ChipSpec model.
    """

    rail_voltage: float = NOMINAL_RAIL_V
    rail_tolerance_v: float = 0.35
    tracking_interval_min: float = 10.0
    supply_change_fraction: float | None = None
    power_margin: float = 0.05
    max_track_iterations: int = 64
    step_minutes: float = 1.0
    ats_margin: float = 0.05
    sensor_averaging: int = 1
    adaptive_margin: bool = False
    adaptive_margin_floor: float = 0.01
    realloc_after_track: bool = False
    enable_pcpg: bool = True
    sensor_staleness_min: float = 5.0
    degraded_budget_fraction: float = 0.5
    solver: str = "exact"
    chip_spec: str = "alpha8"

    def __post_init__(self) -> None:
        if self.rail_voltage <= 0:
            raise ValueError(f"rail_voltage must be positive, got {self.rail_voltage}")
        if self.rail_tolerance_v <= 0:
            raise ValueError(
                f"rail_tolerance_v must be positive, got {self.rail_tolerance_v}"
            )
        if self.tracking_interval_min <= 0:
            raise ValueError(
                f"tracking_interval_min must be positive, got {self.tracking_interval_min}"
            )
        if not 0.0 <= self.power_margin < 0.5:
            raise ValueError(
                f"power_margin must be in [0, 0.5), got {self.power_margin}"
            )
        if self.step_minutes <= 0:
            raise ValueError(f"step_minutes must be positive, got {self.step_minutes}")
        if self.max_track_iterations < 1:
            raise ValueError(
                f"max_track_iterations must be >= 1, got {self.max_track_iterations}"
            )
        if self.sensor_averaging < 1:
            raise ValueError(
                f"sensor_averaging must be >= 1, got {self.sensor_averaging}"
            )
        if self.sensor_staleness_min < 0:
            raise ValueError(
                f"sensor_staleness_min must be >= 0, got {self.sensor_staleness_min}"
            )
        if not 0.0 < self.degraded_budget_fraction <= 1.0:
            raise ValueError(
                "degraded_budget_fraction must be in (0, 1], "
                f"got {self.degraded_budget_fraction}"
            )
        if self.solver not in ("exact", "table"):
            raise ValueError(
                f"solver must be 'exact' or 'table', got {self.solver!r}"
            )
        if not isinstance(self.chip_spec, str):
            raise ValueError(
                f"chip_spec must be a spec string, got {self.chip_spec!r}"
            )
        # Canonicalize so configs naming the same chip compare equal and
        # share one sweep-cache identity ("alpha*8@90nm:itrs;uncore=45.0"
        # and "alpha8" are the same cache key).
        object.__setattr__(
            self, "chip_spec", ChipSpec.parse(self.chip_spec).canonical()
        )
