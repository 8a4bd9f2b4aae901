"""Day-long rack simulation: N chips on one solar farm.

The rack coordinator tracks the farm's MPP (assumed ideal at this level —
each chip's local behaviour was validated in :mod:`repro.core`), divides
the budget by the configured policy, and each chip's local (per-node)
allocator spends its share via TPR-greedy level assignment.

The scenario is a :class:`~repro.core.engine.SupplyPolicy` plugin
(:class:`RackPolicy`) for the unified
:class:`~repro.core.engine.DayEngine`; :func:`run_day_rack` is the stable
public shim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.dayenv import prepare_day
from repro.core.engine import (
    DayEngine,
    SeriesRecorder,
    StepContext,
    StepSample,
    SupplyPolicy,
)
from repro.core.fixed_power import allocate_budget
from repro.environment.locations import Location
from repro.environment.trace import EnvironmentTrace
from repro.fold import left_sum
from repro.multicore.chip import MultiCoreChip
from repro.pv.array import PVArray
from repro.rack.coordinator import divide_budget
from repro.workloads.mixes import mix as mix_by_name

__all__ = ["RackDayResult", "RackPolicy", "run_day_rack", "rack_day_engine"]


@dataclass(frozen=True)
class RackDayResult:
    """Measurements of one rack day.

    Attributes:
        mix_names: Workload mix per chip.
        location_code: Station code.
        month: Calendar month.
        policy: Budget-division policy.
        minutes: Sample times.
        mpp_w: Farm MPP power per step [W].
        consumed_w: Rack power drawn from the farm per step [W].
        throughput_gips: Rack throughput per step.
        on_solar: Whether the rack ran from the farm per step.
        retired_ginst: Instructions retired while solar-powered, per chip.
    """

    mix_names: tuple[str, ...]
    location_code: str
    month: int
    policy: str
    minutes: np.ndarray
    mpp_w: np.ndarray
    consumed_w: np.ndarray
    throughput_gips: np.ndarray
    on_solar: np.ndarray
    retired_ginst: tuple[float, ...]

    @property
    def total_ptp(self) -> float:
        """Rack-wide solar-powered instructions [Ginst]."""
        return left_sum(self.retired_ginst)

    @property
    def energy_utilization(self) -> float:
        """Consumed / available farm energy."""
        available = float(np.sum(self.mpp_w))
        if available <= 0.0:
            return 0.0
        return float(np.sum(self.consumed_w[self.on_solar])) / available

    @property
    def effective_duration_fraction(self) -> float:
        """Fraction of daytime on solar."""
        return float(np.mean(self.on_solar))


class RackPolicy(SupplyPolicy):
    """Coordinator over N per-node allocators sharing one solar farm.

    At the tracking cadence the coordinator divides the farm budget by the
    configured policy (``equal``/``proportional``/``tpr``); each chip's
    local allocator then spends its share.  Off solar, every node runs at
    full speed from the grid.
    """

    uses_ats = True

    def __init__(
        self,
        mix_names: tuple[str, ...],
        division_policy: str,
        cfg: SolarCoreConfig,
    ) -> None:
        self.cfg = cfg
        self.division_policy = division_policy
        self.name = f"Rack-{division_policy}"
        self.chips = [
            MultiCoreChip(mix_by_name(name), seed=1000 + 17 * i, spec=cfg.chip_spec)
            for i, name in enumerate(mix_names)
        ]
        self.retired = [0.0] * len(self.chips)
        self._last_alloc = -float("inf")

    def floor_power(self, ctx: StepContext) -> float:
        return left_sum(
            chip.floor_power_at(ctx.minute, with_gating=self.cfg.enable_pcpg)
            for chip in self.chips
        )

    def solar_step(self, ctx: StepContext) -> StepSample:
        cfg = self.cfg
        chips = self.chips
        minute = ctx.minute
        if minute - self._last_alloc >= cfg.tracking_interval_min:
            budget = ctx.mpp.power * (1.0 - cfg.power_margin)
            shares = divide_budget(
                chips, budget, minute, self.division_policy, cfg.enable_pcpg
            )
            for chip, share in zip(chips, shares):
                if share > 0.0:
                    allocate_budget(
                        chip, share, minute, allow_gating=cfg.enable_pcpg
                    )
            self._last_alloc = minute
        rack_power = left_sum(chip.total_power_at(minute) for chip in chips)
        drawn = min(rack_power, ctx.mpp.power)
        retired_step = 0.0
        for j, chip in enumerate(chips):
            advanced = chip.advance(minute, ctx.dt)
            self.retired[j] += advanced
            retired_step += advanced
        return StepSample(
            consumed_w=drawn,
            throughput_gips=left_sum(c.total_throughput_at(minute) for c in chips),
            retired_ginst=retired_step,
        )

    def utility_step(self, ctx: StepContext) -> StepSample:
        minute = ctx.minute
        grid = 0.0
        for chip in self.chips:
            chip.ungate_all()
            chip.set_all_max()
            grid += chip.total_power_at(minute)
            chip.advance(minute, ctx.dt)
        self._last_alloc = -float("inf")
        return StepSample(
            consumed_w=0.0,
            throughput_gips=left_sum(
                c.total_throughput_at(minute) for c in self.chips
            ),
            utility_w=grid,
        )


class RackRecorder(SeriesRecorder):
    """Builds :class:`RackDayResult` from the base series plus the
    policy's per-node retirement accounting."""

    def __init__(
        self, mix_names: tuple[str, ...], location: Location, month: int,
        division_policy: str,
    ) -> None:
        super().__init__()
        self.mix_names = tuple(mix_names)
        self.location = location
        self.month = month
        self.division_policy = division_policy

    def build(self, engine: DayEngine) -> RackDayResult:
        return RackDayResult(
            mix_names=self.mix_names,
            location_code=self.location.code,
            month=self.month,
            policy=self.division_policy,
            minutes=np.array(self.minutes),
            mpp_w=np.array(self.mpp_w),
            consumed_w=np.array(self.consumed_w),
            throughput_gips=np.array(self.throughput),
            on_solar=np.array(self.on_solar, dtype=bool),
            retired_ginst=tuple(engine.policy.retired),
        )


def rack_day_engine(
    mix_names: tuple[str, ...],
    location: Location,
    month: int,
    policy: str = "tpr",
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults=None,
) -> DayEngine:
    """The configured :class:`DayEngine` behind :func:`run_day_rack`."""
    if not mix_names:
        raise ValueError("a rack needs at least one chip")
    day = prepare_day(
        location, month, config,
        array or PVArray(modules_parallel=len(mix_names)), trace, seed, faults,
    )
    return day.engine(
        RackPolicy(tuple(mix_names), policy, day.config),
        RackRecorder(tuple(mix_names), location, month, policy),
        "run_day_rack",
        dict(
            chips=len(mix_names), location=location.code, month=month,
            policy=policy,
        ),
    )


def run_day_rack(
    mix_names: tuple[str, ...],
    location: Location,
    month: int,
    policy: str = "tpr",
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults=None,
) -> RackDayResult:
    """Simulate one day of a rack of chips on a shared solar farm.

    Args:
        mix_names: One Table 5 mix per chip (rack size = len(mix_names)).
        location: Station to simulate.
        month: Calendar month.
        policy: Budget-division policy (``equal``/``proportional``/``tpr``).
        config: Simulation configuration.
        array: The farm; defaults to one BP3180N string per chip, two in
            parallel (a chip plus its share of rack overhead).
        trace: Pre-generated environment trace.
        seed: Environment seed when ``trace`` is not given.
    """
    engine = rack_day_engine(
        mix_names, location, month, policy, config, array, trace, seed, faults
    )
    return engine.run()
