"""Day-long co-simulation of panel, converter, chip, and controller.

This is the experiment surface behind every figure in the paper's
Section 6.  The actual minute-stepping loop lives in
:class:`repro.core.engine.DayEngine`; this module wires the three classic
scenarios to it as :class:`~repro.core.engine.SupplyPolicy` plugins and
keeps the stable public entry points:

* :func:`run_day` — a SolarCore (MPPT) policy day: IC, RR, or Opt tuning.
* :func:`run_day_fixed` — the Fixed-Power baseline under a budget/threshold.
* :func:`run_day_battery` — the battery-equipped MPPT baseline.

Each ``run_day*`` function also has a ``*_engine`` sibling returning the
configured-but-unrun :class:`~repro.core.engine.DayEngine`, for callers
that need the engine's energy ledger or want to compose policies directly.
Every factory starts from :func:`~repro.core.dayenv.prepare_day`, which
resolves the config, the array, the fault kit and the day's shared
environment.
"""

from __future__ import annotations

import logging

from repro.core.config import SolarCoreConfig
from repro.core.dayenv import prepare_day
from repro.core.engine import DayEngine
from repro.core.policies import (
    BatteryPolicy,
    BatteryRecorder,
    DayResultRecorder,
    FixedBudgetPolicy,
    MPPTPolicy,
)
from repro.core.results import BatteryDayResult, DayResult
from repro.environment.locations import Location
from repro.environment.trace import EnvironmentTrace
from repro.faults import FaultSchedule
from repro.multicore.dvfs import DVFSTable
from repro.power.sensors import IVSensor
from repro.pv.array import PVArray
from repro.workloads.mixes import WorkloadMix, resolve_mix

__all__ = [
    "DayResult",
    "BatteryDayResult",
    "run_day",
    "run_day_fixed",
    "run_day_battery",
    "mppt_day_engine",
    "fixed_day_engine",
    "battery_day_engine",
]

log = logging.getLogger(__name__)


def mppt_day_engine(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    policy: str = "MPPT&Opt",
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    dvfs_table: DVFSTable | None = None,
    sensor: IVSensor | None = None,
    faults: FaultSchedule | str | None = None,
) -> DayEngine:
    """The configured :class:`DayEngine` behind :func:`run_day`."""
    day = prepare_day(location, month, config, array, trace, seed, faults)
    workload = resolve_mix(workload)
    converter = None
    if day.kit is not None:
        sensor = day.kit.wrap_sensor(sensor)
        converter = day.kit.make_converter()
    supply = MPPTPolicy(
        workload, policy, day.config, day.array,
        dvfs_table=dvfs_table, sensor=sensor, converter=converter,
    )
    return day.engine(
        supply,
        DayResultRecorder(workload, location, month),
        "run_day",
        dict(mix=workload.name, location=location.code, month=month, policy=policy),
    )


def run_day(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    policy: str = "MPPT&Opt",
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    dvfs_table: DVFSTable | None = None,
    sensor: IVSensor | None = None,
    faults: FaultSchedule | str | None = None,
) -> DayResult:
    """Simulate one day under a SolarCore MPPT policy.

    Args:
        workload: Table 5 mix (name or object).
        location: Station to simulate.
        month: Calendar month (paper: 1, 4, 7, or 10).
        policy: Load-adaptation policy: ``MPPT&IC``, ``MPPT&RR``, or
            ``MPPT&Opt``.
        config: Controller/simulation parameters.
        array: PV array (defaults to one BP3180N module).
        trace: Pre-generated environment trace (defaults to the standard
            seeded trace for the station/month).
        seed: Environment seed when ``trace`` is not given.
        dvfs_table: Custom DVFS table (defaults to the paper's 6 levels;
            the granularity ablation passes refined tables).
        sensor: Front-end I/V sensor model (ideal by default; the
            robustness study injects noise/quantization here).
        faults: Optional fault schedule (spec string or
            :class:`~repro.faults.schedule.FaultSchedule`) injecting timed
            sensor/PV/converter/supply/trace faults; None or an empty
            schedule leaves the run byte-identical to fault-free.

    Returns:
        The day's :class:`DayResult`.
    """
    engine = mppt_day_engine(
        workload, location, month, policy, config, array, trace, seed,
        dvfs_table, sensor, faults,
    )
    day = engine.run()
    log.debug(
        "run_day %s @ %s m%d (%s): %d tracking events, utilization %.1f%%",
        day.mix_name, day.location_code, day.month, day.policy,
        day.tracking_events, 100.0 * day.energy_utilization,
    )
    return day


def fixed_day_engine(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    budget_w: float,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults: FaultSchedule | str | None = None,
) -> DayEngine:
    """The configured :class:`DayEngine` behind :func:`run_day_fixed`.

    The baseline has no sensor or converter in the loop; only array- and
    trace-level faults (plus engine-applied ones) can bite.
    """
    day = prepare_day(location, month, config, array, trace, seed, faults)
    workload = resolve_mix(workload)
    return day.engine(
        FixedBudgetPolicy(workload, budget_w, day.config),
        DayResultRecorder(workload, location, month),
        "run_day_fixed",
        dict(
            mix=workload.name, location=location.code, month=month,
            budget_w=budget_w,
        ),
    )


def run_day_fixed(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    budget_w: float,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults: FaultSchedule | str | None = None,
) -> DayResult:
    """Simulate one day under the Fixed-Power baseline.

    The chip draws from the panel only while the panel can supply
    ``budget_w`` (the power-transfer threshold); the per-core allocation
    maximizes throughput under that constant budget and is refreshed at the
    tracking cadence using profiled IPC.

    Args/returns: as :func:`run_day`, plus ``budget_w`` [W].
    """
    engine = fixed_day_engine(
        workload, location, month, budget_w, config, array, trace, seed,
        faults,
    )
    return engine.run()


def battery_day_engine(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    derating: float = 0.81,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults: FaultSchedule | str | None = None,
) -> DayEngine:
    """The configured :class:`DayEngine` behind :func:`run_day_battery`."""
    if not 0.0 < derating <= 1.0:
        raise ValueError(f"derating must be in (0, 1], got {derating}")
    day = prepare_day(location, month, config, array, trace, seed, faults)
    workload = resolve_mix(workload)
    return day.engine(
        BatteryPolicy(workload, location, month, derating, day.config),
        BatteryRecorder(),
        "run_day_battery",
        dict(
            mix=workload.name, location=location.code, month=month,
            derating=derating,
        ),
    )


def run_day_battery(
    workload: WorkloadMix | str,
    location: Location,
    month: int,
    derating: float = 0.81,
    config: SolarCoreConfig | None = None,
    array: PVArray | None = None,
    trace: EnvironmentTrace | None = None,
    seed: int | None = None,
    faults: FaultSchedule | str | None = None,
) -> BatteryDayResult:
    """Simulate one day on the battery-equipped MPPT baseline.

    The charge controller harvests the panel's MPP power all day; the
    de-rating chain (Table 3) scales the stored energy; the chip then runs
    at full speed from the stable battery supply until the stored solar
    energy is spent (the paper assumes a dynamic power monitor guarantees
    full consumption).  Paper Figure 21 uses ``derating=0.81`` (Battery-L)
    and ``0.92`` (Battery-U).

    Args/returns: as :func:`run_day`, plus the de-rating factor.
    """
    engine = battery_day_engine(
        workload, location, month, derating, config, array, trace, seed,
        faults,
    )
    return engine.run()
