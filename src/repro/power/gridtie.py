"""Grid-connected PV (paper Figure 2-A): the taxonomy's third system.

A grid-tied installation runs the panel at its MPP through an inverter and
feeds the AC bus; the computer simply draws utility-quality power at full
speed, and the solar generation offsets grid consumption (net metering).
Performance is maximal by construction — the comparison against SolarCore
is about *energy economics*, not throughput:

* the inverter chain loses 4-8 % of the harvest;
* the panel's DC energy is laundered through AC and back through the PSU
  to feed a DC load, stacking conversions the direct-coupled design skips;
* grid-tie needs the inverter (and usually interconnection agreements) the
  paper's Figure 2-B system avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SolarCoreConfig
from repro.environment.locations import Location
from repro.environment.trace import EnvironmentTrace
from repro.multicore.chip import MultiCoreChip
from repro.pv.array import PVArray
from repro.workloads.mixes import WorkloadMix, mix as mix_by_name

__all__ = ["GridTieDayResult", "run_day_gridtie"]

#: Typical string-inverter efficiency (DC -> AC).
DEFAULT_INVERTER_EFFICIENCY = 0.95
#: AC -> DC PSU efficiency on the consumption side.
DEFAULT_PSU_EFFICIENCY = 0.90


@dataclass(frozen=True)
class GridTieDayResult:
    """Measurements of one grid-tied day (paper Figure 2-A).

    Attributes:
        mix_name: Workload mix.
        location_code: Station code.
        month: Calendar month.
        harvested_dc_wh: Panel MPP energy over the day [Wh].
        exported_ac_wh: AC energy delivered to the bus after the inverter.
        consumed_ac_wh: AC energy the computer's PSU drew from the bus.
        ptp: Instructions committed over the day [Ginst] (always full
            speed on grid-quality power).
    """

    mix_name: str
    location_code: str
    month: int
    harvested_dc_wh: float
    exported_ac_wh: float
    consumed_ac_wh: float
    ptp: float

    @property
    def net_metering_balance_wh(self) -> float:
        """AC energy exported minus consumed (positive = net producer)."""
        return self.exported_ac_wh - self.consumed_ac_wh

    @property
    def green_fraction(self) -> float:
        """Solar share of the computer's energy under net metering."""
        if self.consumed_ac_wh <= 0.0:
            return 0.0
        return min(1.0, self.exported_ac_wh / self.consumed_ac_wh)

    @property
    def conversion_loss_wh(self) -> float:
        """Harvest lost in the DC->AC inverter stage [Wh]."""
        return self.harvested_dc_wh - self.exported_ac_wh


def run_day_gridtie(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    inverter_efficiency: float = DEFAULT_INVERTER_EFFICIENCY,
    psu_efficiency: float = DEFAULT_PSU_EFFICIENCY,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
) -> GridTieDayResult:
    """Simulate one day of the grid-connected system (Figure 2-A).

    The panel tracks its MPP perfectly (string inverters do); the chip runs
    flat-out from the AC bus the whole day.

    Args/returns: as :func:`repro.core.simulation.run_day`, plus the
    inverter and PSU efficiencies.
    """
    if not 0.0 < inverter_efficiency <= 1.0:
        raise ValueError(
            f"inverter_efficiency must be in (0, 1], got {inverter_efficiency}"
        )
    if not 0.0 < psu_efficiency <= 1.0:
        raise ValueError(f"psu_efficiency must be in (0, 1], got {psu_efficiency}")
    # Imported here: repro.core imports this package.
    from repro.core.dayenv import day_environment

    cfg = config or SolarCoreConfig()
    workload = workload if isinstance(workload, WorkloadMix) else mix_by_name(workload)
    # The string inverter tracks the exact MPP: the cell's shared exact
    # environment (the direct-coupled days of the same cell solve it too).
    env = day_environment(
        location, month, array or PVArray(),
        seed=seed, step_minutes=cfg.step_minutes, trace=trace,
    ).solve()

    chip = MultiCoreChip(workload, spec=cfg.chip_spec)
    chip.set_all_max()

    dt = cfg.step_minutes
    harvested = 0.0
    consumed_dc = 0.0
    for minute, mpp in zip(env.minutes.tolist(), env.mpp):
        harvested += mpp.power * dt / 60.0
        consumed_dc += chip.total_power_at(minute) * dt / 60.0
        chip.advance(minute, dt)

    return GridTieDayResult(
        mix_name=workload.name,
        location_code=location.code,
        month=month,
        harvested_dc_wh=harvested,
        exported_ac_wh=harvested * inverter_efficiency,
        consumed_ac_wh=consumed_dc / psu_efficiency,
        ptp=chip.retired_ginst,
    )
