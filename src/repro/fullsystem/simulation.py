"""Day-long full-system solar simulation (the Section 8 scenario).

Like :func:`repro.core.simulation.run_day`, but the PV array powers the
*whole server* — chip, memory, disk, and NIC — and the controller's load
knob is the cross-component :class:`~repro.fullsystem.system.SystemTuner`.
The array defaults to two parallel BP3180N modules: a server draws roughly
twice what its processor alone does.

The scenario is a :class:`~repro.core.engine.SupplyPolicy` plugin
(:class:`FullSystemPolicy`) for the unified
:class:`~repro.core.engine.DayEngine`; :func:`run_day_fullsystem` is the
stable public shim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.controller import SolarCoreController
from repro.core.dayenv import prepare_day
from repro.core.engine import (
    DayEngine,
    SeriesRecorder,
    StepContext,
    StepSample,
    SupplyPolicy,
)
from repro.environment.locations import Location
from repro.environment.trace import EnvironmentTrace
from repro.fullsystem.disk import DRPMDisk
from repro.fullsystem.memory import DRAMSystem
from repro.fullsystem.nic import NetworkInterface
from repro.fullsystem.system import FullSystemLoad, SystemTuner
from repro.multicore.chip import MultiCoreChip
from repro.power.converter import DCDCConverter
from repro.pv.array import PVArray
from repro.workloads.mixes import WorkloadMix, resolve_mix

__all__ = [
    "FullSystemDayResult",
    "FullSystemPolicy",
    "run_day_fullsystem",
    "fullsystem_day_engine",
    "default_server",
]


def default_server(
    workload: WorkloadMix, chip_spec: str | None = None
) -> FullSystemLoad:
    """A server built from the spec'd chip, memory, disk, and NIC."""
    return FullSystemLoad(
        chip=MultiCoreChip(workload, spec=chip_spec),
        components=[DRAMSystem(), DRPMDisk(), NetworkInterface()],
    )


@dataclass(frozen=True)
class FullSystemDayResult:
    """Measurements of one full-system solar day.

    Attributes:
        mix_name: Workload mix on the chip.
        location_code: Station code.
        month: Calendar month.
        minutes: Sample times.
        mpp_w: Panel MPP power per step [W].
        consumed_w: Server power drawn from the panel per step [W].
        utility_w: Server power drawn from the grid per step [W].
        chip_throughput_gips: Chip throughput per step.
        system_utility: Weighted normalized system service per step.
        on_solar: Whether the server ran from the panel per step.
    """

    mix_name: str
    location_code: str
    month: int
    minutes: np.ndarray
    mpp_w: np.ndarray
    consumed_w: np.ndarray
    utility_w: np.ndarray
    chip_throughput_gips: np.ndarray
    system_utility: np.ndarray
    on_solar: np.ndarray

    @property
    def step_minutes(self) -> float:
        """Simulation step [minutes]."""
        return float(self.minutes[1] - self.minutes[0])

    @property
    def energy_utilization(self) -> float:
        """Solar energy consumed / theoretical maximum supply."""
        available = float(np.sum(self.mpp_w))
        if available <= 0.0:
            return 0.0
        return float(np.sum(self.consumed_w[self.on_solar])) / available

    @property
    def effective_duration_fraction(self) -> float:
        """Fraction of daytime the server ran from the panel."""
        return float(np.mean(self.on_solar))

    @property
    def mean_system_utility(self) -> float:
        """Average weighted service level over the day."""
        return float(np.mean(self.system_utility))


class FullSystemPolicy(SupplyPolicy):
    """Whole-server supply policy: MPPT with the cross-component tuner.

    The load is a :class:`FullSystemLoad` (chip + memory + disk + NIC) and
    tracking adjusts every component through the
    :class:`~repro.fullsystem.system.SystemTuner`.
    """

    uses_ats = True
    name = "FullSystem"

    def __init__(
        self,
        system: FullSystemLoad,
        cfg: SolarCoreConfig,
        array: PVArray,
    ) -> None:
        self.system = system
        self.cfg = cfg
        system.chip.set_all_min()
        for component in system.components:
            component.set_level(0)
        self.controller = SolarCoreController(
            array, DCDCConverter(), system, SystemTuner(), cfg
        )
        self._last_track = -float("inf")

    def floor_power(self, ctx: StepContext) -> float:
        return self.system.floor_power_at(ctx.minute, self.cfg.enable_pcpg)

    def enter_solar(self, ctx: StepContext) -> None:
        system = self.system
        system.chip.ungate_all()
        system.chip.set_all_min()
        for component in system.components:
            component.set_level(0)
        self._last_track = -float("inf")

    def solar_step(self, ctx: StepContext) -> StepSample:
        system = self.system
        if ctx.minute - self._last_track >= self.cfg.tracking_interval_min:
            self.controller.track(
                ctx.irradiance, ctx.cell_temp, ctx.minute, ctx.mpp
            )
            self._last_track = ctx.minute
        drawn = min(system.total_power_at(ctx.minute), ctx.mpp.power)
        retired = system.chip.advance(ctx.minute, ctx.dt)
        return StepSample(
            consumed_w=drawn,
            throughput_gips=system.chip.total_throughput_at(ctx.minute),
            retired_ginst=retired,
            system_utility=system.utility_at(ctx.minute),
        )

    def utility_step(self, ctx: StepContext) -> StepSample:
        system = self.system
        system.chip.ungate_all()
        system.chip.set_all_max()
        for component in system.components:
            component.set_level(component.n_levels - 1)
        grid = system.total_power_at(ctx.minute)
        system.chip.advance(ctx.minute, ctx.dt)
        return StepSample(
            consumed_w=0.0,
            throughput_gips=system.chip.total_throughput_at(ctx.minute),
            utility_w=grid,
            system_utility=system.utility_at(ctx.minute),
        )


class FullSystemRecorder(SeriesRecorder):
    """Adds the grid-power and service-level series to the base recorder."""

    def __init__(self, workload: WorkloadMix, location: Location, month: int) -> None:
        super().__init__()
        self.workload = workload
        self.location = location
        self.month = month
        self.utility_w: list[float] = []
        self.system_utility: list[float] = []

    def record(self, ctx: StepContext, solar: bool, sample: StepSample) -> None:
        super().record(ctx, solar, sample)
        self.utility_w.append(sample.utility_w)
        self.system_utility.append(sample.system_utility)

    def build(self, engine: DayEngine) -> FullSystemDayResult:
        return FullSystemDayResult(
            mix_name=self.workload.name,
            location_code=self.location.code,
            month=self.month,
            minutes=np.array(self.minutes),
            mpp_w=np.array(self.mpp_w),
            consumed_w=np.array(self.consumed_w),
            utility_w=np.array(self.utility_w),
            chip_throughput_gips=np.array(self.throughput),
            system_utility=np.array(self.system_utility),
            on_solar=np.array(self.on_solar, dtype=bool),
        )


def fullsystem_day_engine(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    server: FullSystemLoad | None = None,
    faults=None,
) -> DayEngine:
    """The configured :class:`DayEngine` behind :func:`run_day_fullsystem`."""
    day = prepare_day(
        location, month, config, array or PVArray(modules_parallel=2),
        trace, seed, faults,
    )
    workload = resolve_mix(workload)
    system = server or default_server(workload, chip_spec=day.config.chip_spec)
    return day.engine(
        FullSystemPolicy(system, day.config, day.array),
        FullSystemRecorder(workload, location, month),
        "run_day_fullsystem",
        dict(mix=workload.name, location=location.code, month=month),
    )


def run_day_fullsystem(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    server: FullSystemLoad | None = None,
    faults=None,
) -> FullSystemDayResult:
    """Simulate one day of a fully solar-powered server.

    Args:
        workload: Chip workload mix (name or object).
        location: Station to simulate.
        month: Calendar month.
        config: Controller/simulation parameters.
        array: PV array; defaults to 2 parallel BP3180N modules (server
            scale).
        trace: Pre-generated environment trace.
        seed: Environment seed when ``trace`` is not given.
        server: Pre-built server (defaults to chip + DRAM + DRPM disk + NIC).

    Returns:
        A :class:`FullSystemDayResult`.
    """
    engine = fullsystem_day_engine(
        workload, location, month, config, array, trace, seed, server, faults
    )
    return engine.run()
