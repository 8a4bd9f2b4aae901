"""Core supply policies: the SolarCore controller and the paper baselines.

Each policy is a :class:`~repro.core.engine.SupplyPolicy` plugin for the
unified :class:`~repro.core.engine.DayEngine` — it owns the load model and
the control decisions, while the engine owns the stepping loop, the ATS,
the energy ledger, and shared telemetry.  The matching recorders build the
public :class:`~repro.core.results.DayResult` /
:class:`~repro.core.results.BatteryDayResult` objects.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.engine import DayEngine, SeriesRecorder, StepContext, StepSample, SupplyPolicy
from repro.core.fixed_power import allocate_budget
from repro.core.forecast import SupplyPredictor
from repro.core.load_tuning import make_tuner
from repro.core.results import BatteryDayResult, DayResult
from repro.environment.locations import Location
from repro.multicore.chip import MultiCoreChip
from repro.multicore.dvfs import DVFSTable
from repro.power.converter import DCDCConverter
from repro.power.sensors import IVSensor
from repro.pv.array import PVArray
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.events import (
    BatteryEvent,
    DVFSAllocationEvent,
    TrackingEvent,
)
from repro.workloads.mixes import WorkloadMix

__all__ = [
    "MPPTPolicy",
    "FixedBudgetPolicy",
    "BatteryPolicy",
    "DayResultRecorder",
    "BatteryRecorder",
]


class MPPTPolicy(SupplyPolicy):
    """The SolarCore policy day: MPP tracking plus IC/RR/Opt load tuning.

    Owns the chip, the DC/DC converter model, the load tuner, the
    :class:`SolarCoreController`, and the optional adaptive-margin supply
    predictor; the ATS decision itself lives in the engine.
    """

    uses_ats = True

    def __init__(
        self,
        workload: WorkloadMix,
        policy: str,
        cfg: SolarCoreConfig,
        array: PVArray,
        dvfs_table: DVFSTable | None = None,
        sensor: IVSensor | None = None,
        converter: DCDCConverter | None = None,
    ) -> None:
        self.workload = workload
        self.cfg = cfg
        if dvfs_table is not None:
            self.chip = MultiCoreChip(workload, table=dvfs_table)
        else:
            self.chip = MultiCoreChip(workload, spec=cfg.chip_spec)
        self.chip.set_all_min()
        self.converter = converter or DCDCConverter()
        self.tuner = make_tuner(policy, allow_gating=cfg.enable_pcpg)
        self.controller = SolarCoreController(
            array, self.converter, self.chip, self.tuner, cfg, sensor
        )
        self.predictor = SupplyPredictor() if cfg.adaptive_margin else None
        self.name = self.tuner.name
        self.tracking_events = 0
        self._last_track_minute = -float("inf")
        self._last_track_mpp: float | None = None

    def floor_power(self, ctx: StepContext) -> float:
        return self.chip.floor_power_at(ctx.minute, with_gating=self.cfg.enable_pcpg)

    def enter_solar(self, ctx: StepContext) -> None:
        # Soft-start: engage the panel at the minimum load.
        self.chip.ungate_all()
        self.chip.set_all_min()
        self._last_track_minute = -float("inf")
        if self.predictor is not None:
            self.predictor.reset()

    def _supply_changed(self, mpp_power: float) -> bool:
        cfg = self.cfg
        return (
            cfg.supply_change_fraction is not None
            and self._last_track_mpp is not None
            and self._last_track_mpp > 0
            and abs(mpp_power - self._last_track_mpp) / self._last_track_mpp
            > cfg.supply_change_fraction
        )

    def track_due(self, minute: float, mpp_power: float) -> bool:
        """Whether a tracking event fires at this solar step.

        Shared by :meth:`solar_step` and the batched day engine
        (:mod:`repro.core.fastday`), which uses it to locate the steps
        that mutate chip state before vectorizing the spans in between.
        """
        return (
            minute - self._last_track_minute >= self.cfg.tracking_interval_min
            or self._supply_changed(mpp_power)
        )

    def solar_step(self, ctx: StepContext) -> StepSample:
        cfg = self.cfg
        chip = self.chip
        minute = ctx.minute
        mpp = ctx.mpp
        if self.predictor is not None:
            self.predictor.observe(minute, mpp.power)
        supply_changed = self._supply_changed(mpp.power)
        if (
            minute - self._last_track_minute >= cfg.tracking_interval_min
            or supply_changed
        ):
            if self.predictor is not None:
                self.controller.margin_override = self.predictor.adaptive_margin(
                    cfg.tracking_interval_min,
                    floor=cfg.adaptive_margin_floor,
                    ceiling=cfg.power_margin,
                )
            result = self.controller.track(
                ctx.irradiance, ctx.cell_temp, minute, mpp
            )
            tel = telemetry_hub.current()
            if cfg.realloc_after_track and not result.load_saturated:
                # Ref [15]-style global reallocation under the budget
                # the tracking event just discovered.
                target = result.best_power_w * (1.0 - cfg.power_margin)
                if target >= chip.floor_power_at(minute, cfg.enable_pcpg):
                    allocate_budget(
                        chip, target, minute, allow_gating=cfg.enable_pcpg
                    )
                    if tel.enabled:
                        tel.count("sim.budget_allocations")
                        tel.emit(
                            DVFSAllocationEvent(
                                minute=minute,
                                budget_w=target,
                                allocated_w=chip.total_power_at(minute),
                            )
                        )
            self.tracking_events += 1
            self._last_track_minute = minute
            self._last_track_mpp = mpp.power
            if tel.enabled:
                tel.count("sim.tracking_events")
                tel.emit(
                    TrackingEvent(
                        minute=minute,
                        mix=self.workload.name,
                        policy=self.tuner.name,
                        iterations=result.iterations,
                        power_w=result.power_w,
                        best_power_w=result.best_power_w,
                        mpp_w=mpp.power,
                        rail_voltage=result.rail_voltage,
                        load_saturated=result.load_saturated,
                        triggered_by="supply-change" if supply_changed else "periodic",
                    )
                )
        # Between tracking events the converter's fast inner loop servos
        # k to hold the rail at nominal, so the chip draws exactly its
        # DVFS-determined demand — bounded by what the panel can give.
        consumed = min(chip.total_power_at(minute), mpp.power)
        retired = chip.advance(minute, ctx.dt)
        return StepSample(
            consumed_w=consumed,
            throughput_gips=chip.total_throughput_at(minute),
            retired_ginst=retired,
        )

    def utility_step(self, ctx: StepContext) -> StepSample:
        # Conventional CMP on grid power, every core at its top level.
        chip = self.chip
        chip.ungate_all()
        chip.set_all_max()
        consumed = chip.total_power_at(ctx.minute)
        chip.advance(ctx.minute, ctx.dt)
        return StepSample(
            consumed_w=0.0,
            throughput_gips=chip.total_throughput_at(ctx.minute),
            utility_w=consumed,
        )

    def final_telemetry(self, tel) -> None:
        tel.count("sim.dvfs_transitions", self.chip.total_transitions)


class FixedBudgetPolicy(SupplyPolicy):
    """The Fixed-Power baseline: a constant power-transfer threshold.

    The chip draws from the panel only while the panel can supply
    ``budget_w`` and the budget covers the chip's floor configuration; the
    per-core allocation is refreshed at the tracking cadence.
    """

    uses_ats = False

    def __init__(
        self,
        workload: WorkloadMix,
        budget_w: float,
        cfg: SolarCoreConfig,
    ) -> None:
        self.workload = workload
        self.budget_w = budget_w
        self.cfg = cfg
        self.chip = MultiCoreChip(workload, spec=cfg.chip_spec)
        self.name = f"Fixed-{budget_w:.0f}W"
        self.tracking_events = 0
        self._last_alloc_minute = -float("inf")

    def solar_eligible(self, ctx: StepContext) -> bool:
        # Solar-eligible only when the panel covers the full fixed budget
        # and the budget covers the chip's floor configuration.
        floor_power = self.chip.floor_power_at(
            ctx.minute, with_gating=self.cfg.enable_pcpg
        )
        return ctx.mpp.power >= self.budget_w and self.budget_w >= floor_power

    def alloc_due(self, minute: float) -> bool:
        """Whether the per-core allocation refreshes at this solar step
        (shared with the batched day engine)."""
        return minute - self._last_alloc_minute >= self.cfg.tracking_interval_min

    def solar_step(self, ctx: StepContext) -> StepSample:
        cfg = self.cfg
        chip = self.chip
        minute = ctx.minute
        if self.alloc_due(minute):
            allocate_budget(
                chip, self.budget_w, minute, allow_gating=cfg.enable_pcpg
            )
            self._last_alloc_minute = minute
            tel = telemetry_hub.current()
            if tel.enabled:
                tel.count("sim.budget_allocations")
                tel.emit(
                    DVFSAllocationEvent(
                        minute=minute,
                        budget_w=self.budget_w,
                        allocated_w=chip.total_power_at(minute),
                    )
                )
        consumed = min(chip.total_power_at(minute), self.budget_w)
        retired = chip.advance(minute, ctx.dt)
        return StepSample(
            consumed_w=consumed,
            throughput_gips=chip.total_throughput_at(minute),
            retired_ginst=retired,
        )

    def utility_step(self, ctx: StepContext) -> StepSample:
        chip = self.chip
        chip.ungate_all()
        chip.set_all_max()
        consumed = chip.total_power_at(ctx.minute)
        chip.advance(ctx.minute, ctx.dt)
        self._last_alloc_minute = -float("inf")
        return StepSample(
            consumed_w=0.0,
            throughput_gips=chip.total_throughput_at(ctx.minute),
            utility_w=consumed,
        )

    def final_telemetry(self, tel) -> None:
        tel.count("sim.dvfs_transitions", self.chip.total_transitions)


class BatteryPolicy(SupplyPolicy):
    """The battery-equipped MPPT baseline (paper Figure 2-C).

    During the engine's day loop the charge controller harvests the
    panel's MPP power every step; :meth:`finalize` then applies the
    de-rating chain (Table 3) and runs the chip at full speed from the
    stable battery supply until the stored energy is spent.
    """

    uses_ats = False

    def __init__(
        self,
        workload: WorkloadMix,
        location: Location,
        month: int,
        derating: float,
        cfg: SolarCoreConfig,
    ) -> None:
        self.workload = workload
        self.location = location
        self.month = month
        self.derating = derating
        self.cfg = cfg
        self.name = "Battery"
        self.harvested_wh = 0.0
        self.spent_wh = 0.0
        self.chip: MultiCoreChip | None = None

    def solar_eligible(self, ctx: StepContext) -> bool:
        return True

    def solar_step(self, ctx: StepContext) -> StepSample:
        # Harvest: MPP power integrated over the day (de-rated at the end).
        self.harvested_wh += ctx.mpp.power * ctx.dt / 60.0
        return StepSample(consumed_w=0.0, throughput_gips=0.0)

    def utility_step(self, ctx: StepContext) -> StepSample:  # pragma: no cover
        raise AssertionError("the battery baseline never runs from the grid")

    def finalize(self, engine: DayEngine) -> BatteryDayResult:
        """De-rate the harvest, spend it at full speed, build the result."""
        tel = telemetry_hub.current()
        start = float(engine.environment.minutes[0])
        dt = self.cfg.step_minutes
        self.harvested_wh *= self.derating
        if tel.enabled:
            tel.emit(
                BatteryEvent(
                    minute=start,
                    phase="harvested",
                    energy_wh=self.harvested_wh,
                    derating=self.derating,
                )
            )

        # Spend: full speed from a stable supply until the energy runs out.
        chip = MultiCoreChip(self.workload, spec=self.cfg.chip_spec)
        chip.set_all_max()
        self.chip = chip
        remaining_wh = self.harvested_wh
        minute = start
        while remaining_wh > 0.0:
            power = chip.total_power_at(minute)
            step_wh = power * dt / 60.0
            if step_wh >= remaining_wh:
                # Partial final step: run the exact fraction the energy allows.
                fraction = remaining_wh / step_wh
                chip.advance(minute, dt * fraction)
                minute += dt * fraction
                self.spent_wh += remaining_wh
                remaining_wh = 0.0
                break
            chip.advance(minute, dt)
            remaining_wh -= step_wh
            self.spent_wh += step_wh
            minute += dt

        if tel.enabled:
            tel.emit(
                BatteryEvent(
                    minute=minute, phase="depleted", energy_wh=0.0,
                    derating=self.derating,
                )
            )
        return BatteryDayResult(
            mix_name=self.workload.name,
            location_code=self.location.code,
            month=self.month,
            derating=self.derating,
            harvested_wh=self.harvested_wh,
            runtime_minutes=minute - start,
            ptp=chip.retired_ginst,
        )


class DayResultRecorder(SeriesRecorder):
    """Builds the classic :class:`DayResult` from the shared base series."""

    def __init__(self, workload: WorkloadMix, location: Location, month: int) -> None:
        super().__init__()
        self.workload = workload
        self.location = location
        self.month = month

    def build(self, engine: DayEngine) -> DayResult:
        policy = engine.policy
        return DayResult(
            mix_name=self.workload.name,
            location_code=self.location.code,
            month=self.month,
            policy=policy.name,
            minutes=np.array(self.minutes),
            mpp_w=np.array(self.mpp_w),
            consumed_w=np.array(self.consumed_w),
            throughput_gips=np.array(self.throughput),
            on_solar=np.array(self.on_solar, dtype=bool),
            retired_ginst_solar=self.retired_solar,
            retired_ginst_total=policy.chip.retired_ginst,
            utility_wh=self.utility_wh,
            tracking_events=policy.tracking_events,
            dvfs_transitions=policy.chip.total_transitions,
            dvfs_transition_volts=policy.chip.total_transition_volts,
        )


class BatteryRecorder(SeriesRecorder):
    """The battery day keeps no per-step series; the result comes from the
    policy's harvest/spend accounting."""

    def record(self, ctx: StepContext, solar: bool, sample: StepSample) -> None:
        pass

    def build(self, engine: DayEngine) -> BatteryDayResult:
        return engine.policy.finalize(engine)
