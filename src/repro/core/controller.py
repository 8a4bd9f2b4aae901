"""The SolarCore controller: multi-core aware MPP tracking (paper Section 4.2).

The controller owns the two knobs of the direct-coupled system — the DC/DC
transfer ratio ``k`` and the multi-core load ``w`` (per-core DVFS, delegated
to a :class:`~repro.core.load_tuning.LoadTuner`) — and runs the paper's
three-step tracking strategy (Figure 9) at every tracking event:

    Step 1  restore the rail voltage to nominal by tuning the load;
    Step 2  perturb ``k`` by +delta-k and watch the output current: a rise
            means the operating point is left of the MPP (keep the move), a
            fall means the direction was wrong (net move becomes -delta-k);
    Step 3  raise the load until the rail returns to nominal.

Steps 2-3 repeat, each combined move dragging the operating point toward the
MPP at a stable rail voltage, until the measured power passes its inflection
point; the controller then sheds load until consumption sits a configured
power margin below the discovered maximum (Section 6.1's accuracy/robustness
trade-off).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from repro.brent import brentq
from repro.core.config import SolarCoreConfig
from repro.core.load_tuning import LoadTuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.power.operating_point import OperatingPoint, solve_operating_point
from repro.power.sensors import IVSensor, SensorDropout, SensorReading
from repro.power.surface import get_surfaces
from repro.pv.curves import PVDevice
from repro.pv.mpp import MaxPowerPoint
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.events import (
    DegradedModeEvent,
    LoadTuningEvent,
    RecoveryEvent,
)
from repro.telemetry.metrics import DEFAULT_ITERATION_BUCKETS

__all__ = ["SolarCoreController", "TrackingResult"]

log = logging.getLogger(__name__)


class _SensorStale(Exception):
    """Raised inside a tracking event when the sensor front-end has been
    silent longer than ``config.sensor_staleness_min``: held readings can
    no longer be trusted and the event must fall back to the conservative
    degraded-mode budget."""


@dataclass(frozen=True)
class TrackingResult:
    """Outcome of one tracking event.

    Attributes:
        iterations: Combined (k, w) tuning iterations performed.
        power_w: Load power after tracking [W].
        best_power_w: Maximum power observed during the event [W] (the
            controller's MPP estimate).
        rail_voltage: Converter output voltage after tracking [V].
        k: Transfer ratio after tracking.
        load_saturated: True when every core reached the top level and the
            panel still had headroom.
    """

    iterations: int
    power_w: float
    best_power_w: float
    rail_voltage: float
    k: float
    load_saturated: bool


class SolarCoreController:
    """Coordinates converter and per-core DVFS to harvest maximal solar power.

    Args:
        array: The PV generator.
        converter: The DC/DC matching network.
        chip: The multi-core load.
        tuner: Load-adaptation policy (IC / RR / Opt).
        config: Controller parameters.
        sensor: Front-end I/V sensor (ideal by default).
    """

    def __init__(
        self,
        array: PVDevice,
        converter: DCDCConverter,
        chip: MultiCoreChip,
        tuner: LoadTuner,
        config: SolarCoreConfig | None = None,
        sensor: IVSensor | None = None,
    ) -> None:
        self.array = array
        self.converter = converter
        self.chip = chip
        self.tuner = tuner
        self.config = config or SolarCoreConfig()
        self.sensor = sensor or IVSensor()
        #: The array's :class:`~repro.power.surface.OperatingSurfaces` in
        #: table-solver mode; None keeps the exact solvers (exact mode, or
        #: a device the tables cannot represent).
        self.surfaces = (
            get_surfaces(array) if self.config.solver == "table" else None
        )
        #: Per-event margin override set by an adaptive-margin supervisor
        #: (None = use ``config.power_margin``).
        self.margin_override: float | None = None
        # Load-tuning tallies for the current tracking event.
        self._raises = 0
        self._sheds = 0
        # Graceful-degradation state (DESIGN.md section 10): the last
        # trusted sensor reading, when it was taken, and whether the
        # controller is currently running on the conservative budget.
        self._last_good: SensorReading | None = None
        self._last_good_minute: float = -math.inf
        self.degraded: bool = False

    # -- counted load-tuning moves -------------------------------------
    def _raise_load(self, minute: float) -> bool:
        moved = self.tuner.increase(self.chip, minute)
        if moved:
            self._raises += 1
        return moved

    def _shed_load(self, minute: float) -> bool:
        moved = self.tuner.decrease(self.chip, minute)
        if moved:
            self._sheds += 1
        return moved

    # ------------------------------------------------------------------
    # Electrical helpers
    # ------------------------------------------------------------------
    def _read_burst(self, point: OperatingPoint) -> SensorReading:
        """Sample the I/V sensors, averaging an ADC burst if configured.

        Averaging suppresses multiplicative sensor noise by ~sqrt(N) —
        essential for the perturb-and-observe direction decisions, whose
        true signal is a ~1 % current change.
        """
        n = self.config.sensor_averaging
        if n == 1:
            return self.sensor.read(point)
        readings = [self.sensor.read(point) for _ in range(n)]
        return SensorReading(
            voltage=sum(r.voltage for r in readings) / n,
            current=sum(r.current for r in readings) / n,
        )

    def _read(self, point: OperatingPoint, minute: float) -> SensorReading:
        """A trusted sensor reading, degrading gracefully on dropout.

        On :class:`SensorDropout` the last good reading substitutes for
        up to ``config.sensor_staleness_min`` minutes; past that cap the
        event aborts into degraded mode (:meth:`_enter_degraded`).  A
        successful read while degraded ends the episode.
        """
        try:
            reading = self._read_burst(point)
        except SensorDropout:
            if (
                self._last_good is not None
                and minute - self._last_good_minute <= self.config.sensor_staleness_min
            ):
                tel = telemetry_hub.current()
                if tel.enabled:
                    tel.count("controller.stale_reads")
                return self._last_good
            raise _SensorStale() from None
        if self.degraded:
            tel = telemetry_hub.current()
            if tel.enabled:
                tel.count("controller.recoveries")
                tel.emit(
                    RecoveryEvent(
                        minute=minute,
                        source="controller",
                        stale_min=(
                            minute - self._last_good_minute
                            if self._last_good is not None
                            else minute
                        ),
                    )
                )
            self.degraded = False
        self._last_good = reading
        self._last_good_minute = minute
        return reading

    def solve(self, irradiance: float, cell_temp_c: float, minute: float) -> OperatingPoint:
        """Operating point at the current (k, levels) and environment."""
        resistance = self.chip.effective_resistance(minute, self.config.rail_voltage)
        if self.surfaces is not None:
            return self.surfaces.operating_point(
                self.converter, resistance, irradiance, cell_temp_c
            )
        return solve_operating_point(
            self.array, self.converter, resistance, irradiance, cell_temp_c
        )

    def _align_k_to_rail(
        self,
        irradiance: float,
        cell_temp_c: float,
        minute: float,
        mpp: MaxPowerPoint,
    ) -> OperatingPoint:
        """Snap ``k`` (on its delta-k grid) so the rail sits near nominal.

        Solves for the *right-branch* PV voltage (between Vmpp and Voc) at
        which the panel supplies the chip's demand, and sets
        ``k = Vpv / Vnominal``.  Anchoring on the stable branch matters: a
        fast supply drop can leave the previous operating point on the
        collapsed near-short-circuit branch, where naive fixed-point updates
        of ``k`` ratchet the rail toward zero.  This stands in for the brief
        calibration sweep a real MPPT front-end performs; the
        perturb-and-observe loop does the actual tracking.
        """
        chip_demand = self.chip.total_power_at(minute)
        op = self.solve(irradiance, cell_temp_c, minute)
        if chip_demand <= 0.0:
            return op
        surfaces = self.surfaces
        if mpp.power <= 0.0:
            return op
        # Stay strictly right of the MPP so the equilibrium is on the stable
        # branch even when demand exceeds what the panel can give.
        target_power = min(chip_demand, 0.98 * mpp.power)

        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("controller.align_solves")
        v_right = None
        if surfaces is not None:
            v_right = surfaces.right_branch_voltage(
                irradiance, cell_temp_c, mpp.power, target_power
            )
        if v_right is None:
            voc = self.array.open_circuit_voltage(irradiance, cell_temp_c)

            def surplus(v: float) -> float:
                return (
                    v * self.array.current(v, irradiance, cell_temp_c) - target_power
                )

            # surplus(Vmpp) >= 0 by construction and surplus(Voc) < 0.
            v_right, _ = brentq(surplus, mpp.voltage, voc, xtol=1e-6)
        quantum = self.converter.delta_k
        self.converter.k = round(v_right / self.config.rail_voltage / quantum) * quantum
        return self.solve(irradiance, cell_temp_c, minute)

    def _restore_rail(
        self, irradiance: float, cell_temp_c: float, minute: float
    ) -> OperatingPoint:
        """Step 1: move the rail voltage back into the acceptance band using
        the load knob (k untouched, as in the paper's flowchart)."""
        cfg = self.config
        op = self.solve(irradiance, cell_temp_c, minute)
        for _ in range(cfg.max_track_iterations):
            reading = self._read(op, minute)
            error = reading.voltage - cfg.rail_voltage
            if abs(error) <= cfg.rail_tolerance_v:
                break
            # Rail high -> panel has headroom -> draw more (raise load).
            moved = (
                self._raise_load(minute) if error > 0 else self._shed_load(minute)
            )
            if not moved:
                break
            new_op = self.solve(irradiance, cell_temp_c, minute)
            new_error = self._read(new_op, minute).voltage - cfg.rail_voltage
            if abs(new_error) >= abs(error):
                # The DVFS quantum overshot the band; undo and settle.
                if error > 0:
                    self._shed_load(minute)
                else:
                    self._raise_load(minute)
                op = self.solve(irradiance, cell_temp_c, minute)
                break
            op = new_op
        return op

    # ------------------------------------------------------------------
    # The tracking event
    # ------------------------------------------------------------------
    def track(
        self,
        irradiance: float,
        cell_temp_c: float,
        minute: float,
        mpp: MaxPowerPoint,
    ) -> TrackingResult:
        """Run one three-step MPP tracking event (paper Figure 9).

        Environment is frozen for the duration of the event — tracking takes
        under 5 ms against a 10-minute period (paper Section 5).

        Args:
            irradiance: Plane-of-array irradiance [W/m^2].
            cell_temp_c: Cell temperature [C].
            minute: Sample time [minutes since midnight].
            mpp: The panel's MPP at this step, as the caller solved it
                (the engine's step environment); rail alignment anchors
                on it instead of solving it again.

        Returns:
            A :class:`TrackingResult` describing the settled state.
        """
        cfg = self.config
        margin = (
            cfg.power_margin if self.margin_override is None else self.margin_override
        )
        if irradiance <= 0.0:
            return TrackingResult(0, 0.0, 0.0, 0.0, self.converter.k, False)

        tel = telemetry_hub.current()
        self._raises = 0
        self._sheds = 0
        with tel.span("controller.track"):
            try:
                result = self._track_event(
                    irradiance, cell_temp_c, minute, mpp, cfg, margin
                )
            except _SensorStale:
                result = self._enter_degraded(irradiance, cell_temp_c, minute, cfg)
        if tel.enabled:
            tel.observe(
                "controller.track_iterations",
                result.iterations,
                DEFAULT_ITERATION_BUCKETS,
            )
            tel.count("controller.load_raises", self._raises)
            tel.count("controller.load_sheds", self._sheds)
            tel.emit(
                LoadTuningEvent(
                    minute=minute,
                    policy=self.tuner.name,
                    raises=self._raises,
                    sheds=self._sheds,
                )
            )
        log.debug(
            "track @ m%.0f: %d iterations, %.1f W (best %.1f W), rail %.2f V",
            minute, result.iterations, result.power_w, result.best_power_w,
            result.rail_voltage,
        )
        return result

    def _track_event(
        self,
        irradiance: float,
        cell_temp_c: float,
        minute: float,
        mpp: MaxPowerPoint,
        cfg: SolarCoreConfig,
        margin: float,
    ) -> TrackingResult:
        # Step 1: normalize the rail.  A coarse k alignment first keeps the
        # load knob within reach of the acceptance band at dawn/dusk.
        self._align_k_to_rail(irradiance, cell_temp_c, minute, mpp)
        op = self._restore_rail(irradiance, cell_temp_c, minute)

        best_power = self._read(op, minute).power
        load_saturated = False
        iterations = 0
        for iterations in range(1, cfg.max_track_iterations + 1):
            # Step 2: perturb k and observe the output current direction.
            current_before = self._read(op, minute).current
            self.converter.step_up()
            op = self.solve(irradiance, cell_temp_c, minute)
            if self._read(op, minute).current < current_before:
                # Wrong direction: net move becomes -delta-k.
                self.converter.step_down(2)
                op = self.solve(irradiance, cell_temp_c, minute)

            # Step 3: load matching — raise load until the rail returns to
            # nominal (each raise pulls Vout down toward Vdd).  A raise that
            # would drop the rail below the acceptance band is undone: the
            # DVFS quantum is coarser than the remaining error.
            raised_any = False
            while self._read(op, minute).voltage > cfg.rail_voltage:
                if not self._raise_load(minute):
                    load_saturated = True
                    break
                candidate = self.solve(irradiance, cell_temp_c, minute)
                if (
                    self._read(candidate, minute).voltage
                    < cfg.rail_voltage - cfg.rail_tolerance_v
                ):
                    self._shed_load(minute)
                    op = self.solve(irradiance, cell_temp_c, minute)
                    break
                raised_any = True
                op = candidate

            power = self._read(op, minute).power
            # Hysteresis on inflection detection: the measured transient
            # power wobbles with the rail's position inside the tolerance
            # band, and with fine DVFS quanta that wobble can exceed one
            # load step.  Only a clear drop marks the true inflection.
            inflection_band = max(1.0, 0.01 * best_power)
            if power < best_power - inflection_band:
                # Inflection passed: shed load back under the budget margin.
                target = best_power * (1.0 - margin)
                while (
                    self._read(op, minute).power > target
                    and self._shed_load(minute)
                ):
                    op = self.solve(irradiance, cell_temp_c, minute)
                break
            best_power = power
            if load_saturated:
                # Chip absorbs everything it can; park the rail at nominal.
                op = self._align_k_to_rail(irradiance, cell_temp_c, minute, mpp)
                break
            if not raised_any:
                # Neither knob moved the system: settled at the optimum.
                break

        # Safety net: if the event ended with the rail far from nominal
        # (deep supply transient mid-event), re-anchor on the stable branch.
        if abs(self._read(op, minute).voltage - cfg.rail_voltage) > 3 * cfg.rail_tolerance_v:
            op = self._align_k_to_rail(irradiance, cell_temp_c, minute, mpp)
            op = self._restore_rail(irradiance, cell_temp_c, minute)

        # Leave the stabilizing power margin below the discovered maximum
        # (Section 6.1): the headroom absorbs load ripple and small supply
        # drops until the next tracking event.  The margin applies to the
        # chip's nominal-rail demand — what it will actually draw once the
        # converter's inner loop re-centers the rail after the event.
        margin_target = best_power * (1.0 - margin)
        while (
            not load_saturated
            and self.chip.total_power_at(minute) > margin_target
            and self._shed_load(minute)
        ):
            pass
        op = self.solve(irradiance, cell_temp_c, minute)

        reading = self._read(op, minute)
        return TrackingResult(
            iterations=iterations,
            power_w=reading.power,
            best_power_w=best_power,
            rail_voltage=reading.voltage,
            k=self.converter.k,
            load_saturated=load_saturated,
        )

    # ------------------------------------------------------------------
    # Degraded mode (DESIGN.md section 10)
    # ------------------------------------------------------------------
    def _enter_degraded(
        self,
        irradiance: float,
        cell_temp_c: float,
        minute: float,
        cfg: SolarCoreConfig,
    ) -> TrackingResult:
        """Fall back to a conservative power budget while the sensor is dark.

        The budget is ``degraded_budget_fraction`` of the last good power
        reading, floored at the chip's minimum sustainable configuration
        (a budget below the floor would be unenforceable).  Load is shed
        until the allocation fits; the electrical model still settles the
        rail (hardware inner loops keep regulating without the MPPT
        telemetry), but no perturb-and-observe step runs — the knobs stay
        parked until readings return.
        """
        tel = telemetry_hub.current()
        floor = self.chip.floor_power_at(minute, with_gating=cfg.enable_pcpg)
        last_power = self._last_good.power if self._last_good is not None else 0.0
        budget = max(cfg.degraded_budget_fraction * last_power, floor)
        while self.chip.total_power_at(minute) > budget and self._shed_load(minute):
            pass
        allocated = self.chip.total_power_at(minute)
        # The fractional budget can undercut the chip's *reachable* floor
        # (which core survives gating is the tuner's pick, not necessarily
        # the cheapest), so the enforced budget is whatever the shed
        # actually reached — never below the allocation it left running.
        budget = max(budget, allocated)
        if tel.enabled:
            tel.count("controller.degraded_tracks")
            tel.emit(
                DegradedModeEvent(
                    minute=minute,
                    reason="sensor-stale",
                    stale_min=(
                        minute - self._last_good_minute
                        if self._last_good is not None
                        else minute
                    ),
                    budget_w=budget,
                    allocated_w=allocated,
                )
            )
        if not self.degraded:
            log.warning(
                "degraded mode @ m%.0f: sensor stale %.1f min, budget %.1f W "
                "(allocated %.1f W)",
                minute,
                minute - self._last_good_minute if self._last_good else minute,
                budget,
                allocated,
            )
        self.degraded = True
        op = self.solve(irradiance, cell_temp_c, minute)
        return TrackingResult(
            iterations=0,
            power_w=allocated,
            best_power_w=budget,
            rail_voltage=op.output_voltage,
            k=self.converter.k,
            load_saturated=False,
        )
