"""One function per paper table/figure: the reproduction experiment index.

Every public function regenerates the data behind one artifact of the
paper's evaluation (Section 6) — same axes, same workloads, same sweep
ranges — returning plain data structures that
:mod:`repro.harness.reporting` renders as the rows/series the paper prints.

    fig01_fixed_load_utilization   Figure 1
    fig04_cell_curves              Figure 4
    fig06_module_irradiance_curves Figure 6
    fig07_module_temperature_curves Figure 7
    fig13_14_tracking              Figures 13 & 14
    table7_tracking_error          Table 7
    fig15_duration_vs_threshold    Figure 15
    fig16_energy_vs_threshold      Figure 16
    fig17_ptp_vs_threshold         Figure 17
    fig18_energy_utilization       Figure 18
    fig19_effective_duration       Figure 19
    fig20_utilization_vs_duration  Figure 20
    fig21_normalized_ptp           Figure 21
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.environment.locations import ALL_LOCATIONS, EVALUATED_MONTHS
from repro.harness.parallel import SweepTask, grid_tasks
from repro.harness.runner import SimulationRunner, default_runner
from repro.metrics.ptp import normalized_ptp
from repro.metrics.utilization import DURATION_BUCKETS, bucket_by_duration
from repro.pv.array import PVArray
from repro.pv.cell import PVCell
from repro.pv.curves import IVCurve, sample_iv_curve
from repro.pv.module import PVModule
from repro.pv.mpp import find_mpp
from repro.pv.params import bp3180n
from repro.workloads.mixes import ALL_MIX_NAMES

__all__ = [
    "fig01_fixed_load_utilization",
    "fig04_cell_curves",
    "fig06_module_irradiance_curves",
    "fig07_module_temperature_curves",
    "fig13_14_tracking",
    "table7_tracking_error",
    "fig15_duration_vs_threshold",
    "fig16_energy_vs_threshold",
    "fig17_ptp_vs_threshold",
    "fig18_energy_utilization",
    "fig19_effective_duration",
    "fig20_utilization_vs_duration",
    "fig21_normalized_ptp",
    "TrackingTrace",
    "BATTERY_BOUNDS",
    "POLICIES",
    "DEFAULT_BUDGETS_W",
    "standard_grid_tasks",
    "prefetch_standard_grid",
]

#: The three MPPT load-adaptation policies, in Table 6 order.
POLICIES = ("MPPT&IC", "MPPT&RR", "MPPT&Opt")

#: Battery-system overall de-rating bounds used in Figures 18/21: Table 3's
#: chain of MPPT charge-controller efficiency times battery round-trip
#: efficiency, 97 % x 95 % ~= 92 % (high) and 95 % x 85 % ~= 81 %
#: (moderate, typical).  ``BatteryPolicy`` applies the factor to the day's
#: MPP harvest.
BATTERY_BOUNDS = {"Battery-L": 0.81, "Battery-U": 0.92}

#: Fixed power budgets swept in Figures 15-17 [W].  The paper sweeps
#: 25-125 W; our chip's uncore floor shifts the feasible range upward.
DEFAULT_BUDGETS_W = (50.0, 60.0, 75.0, 100.0, 125.0)


# ----------------------------------------------------------------------
# The evaluation grid, as sweep tasks (the parallel engine's unit)
# ----------------------------------------------------------------------
def standard_grid_tasks(
    mixes: tuple[str, ...] = ALL_MIX_NAMES,
    months: tuple[int, ...] = EVALUATED_MONTHS,
    locations=ALL_LOCATIONS,
    policies: tuple[str, ...] = POLICIES,
    budgets_w: tuple[float, ...] = DEFAULT_BUDGETS_W,
    deratings: tuple[float, ...] = tuple(BATTERY_BOUNDS.values()),
) -> list[SweepTask]:
    """Every day simulation the Section 6 figures slice, as sweep tasks.

    The full default grid is what Figures 13-21 and Table 7 share: every
    (location, month, mix) cell under each MPPT policy, each Fixed-Power
    budget, and both battery bounds.  Narrow the keyword arguments to
    build the subset one experiment needs.
    """
    return grid_tasks(
        mixes, locations, months,
        policies=policies, budgets_w=budgets_w, deratings=deratings,
    )


def prefetch_standard_grid(
    runner: SimulationRunner | None = None, **grid_kwargs
) -> SimulationRunner:
    """Materialize (a subset of) the evaluation grid into ``runner``.

    With ``runner.jobs > 1`` the missing cells fan out across worker
    processes; afterwards every experiment function below is a pure
    cache read.  Keyword arguments narrow the grid as in
    :func:`standard_grid_tasks`.

    Returns:
        The (possibly default) runner, now holding the grid.
    """
    runner = runner or default_runner
    runner.prefetch(standard_grid_tasks(**grid_kwargs))
    return runner


# ----------------------------------------------------------------------
# Figure 1 — why fixed loads waste solar energy
# ----------------------------------------------------------------------
def fig01_fixed_load_utilization(
    irradiances: tuple[float, ...] = (1000.0, 800.0, 600.0, 400.0),
    cell_temp_c: float = 25.0,
) -> list[tuple[float, float]]:
    """Energy utilization of a *fixed* resistive load vs irradiance.

    The load is sized to hit the MPP at the first (highest) irradiance, then
    held fixed while irradiance drops — reproducing Figure 1's >50 % loss at
    400 W/m^2.

    Returns:
        ``[(irradiance, utilization), ...]`` with utilization in [0, 1+].
    """
    array = PVArray()
    reference = find_mpp(array, irradiances[0], cell_temp_c)
    resistance = reference.voltage / reference.current

    rows = []
    for g in irradiances:
        voc = array.open_circuit_voltage(g, cell_temp_c)
        v_op = float(
            brentq(
                lambda v: array.current(v, g, cell_temp_c) - v / resistance,
                1e-9,
                voc,
            )
        )
        power = v_op * array.current(v_op, g, cell_temp_c)
        mpp = find_mpp(array, g, cell_temp_c)
        rows.append((g, power / mpp.power))
    return rows


# ----------------------------------------------------------------------
# Figures 4, 6, 7 — device characteristics
# ----------------------------------------------------------------------
def fig04_cell_curves(
    irradiance: float = 1000.0,
    cell_temp_c: float = 25.0,
    n_points: int = 100,
) -> IVCurve:
    """Single-cell I-V/P-V characteristic with its MPP (Figure 4)."""
    cell = PVCell(bp3180n().cell)
    return sample_iv_curve(cell, irradiance, cell_temp_c, n_points)


def fig06_module_irradiance_curves(
    irradiances: tuple[float, ...] = (400.0, 600.0, 800.0, 1000.0),
    cell_temp_c: float = 25.0,
    n_points: int = 100,
) -> dict[float, IVCurve]:
    """BP3180N module curves across irradiance at fixed temperature (Fig 6)."""
    module = PVModule(bp3180n())
    return {
        g: sample_iv_curve(module, g, cell_temp_c, n_points) for g in irradiances
    }


def fig07_module_temperature_curves(
    temperatures_c: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0),
    irradiance: float = 1000.0,
    n_points: int = 100,
) -> dict[float, IVCurve]:
    """BP3180N module curves across temperature at fixed irradiance (Fig 7)."""
    module = PVModule(bp3180n())
    return {
        t: sample_iv_curve(module, irradiance, t, n_points) for t in temperatures_c
    }


# ----------------------------------------------------------------------
# Figures 13/14 — tracking traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrackingTrace:
    """One tracking-accuracy trace (a panel of Figure 13/14).

    Attributes:
        mix_name: Workload mix.
        minutes: Time axis [minutes since midnight].
        budget_w: Maximal power budget (panel MPP) series [W].
        actual_w: Actual power consumption series [W].
    """

    mix_name: str
    minutes: np.ndarray
    budget_w: np.ndarray
    actual_w: np.ndarray

    @property
    def mean_error(self) -> float:
        """Mean relative tracking error over solar-powered samples.

        Samples with zero actual power are utility-powered periods (the
        figure plots them at zero) and are excluded, as in Table 7.
        """
        mask = (self.budget_w > 0) & (self.actual_w > 0)
        return float(
            np.mean(
                np.abs(self.actual_w[mask] - self.budget_w[mask])
                / self.budget_w[mask]
            )
        )


def fig13_14_tracking(
    month: int,
    mixes: tuple[str, ...] = ("H1", "HM2", "L1"),
    location: str = "AZ",
    runner: SimulationRunner | None = None,
) -> dict[str, TrackingTrace]:
    """MPP tracking traces at AZ (Figure 13: Jan; Figure 14: Jul).

    Returns one :class:`TrackingTrace` per requested mix.
    """
    runner = runner or default_runner
    traces = {}
    for mix_name in mixes:
        day = runner.day(mix_name, location, month, "MPPT&Opt")
        traces[mix_name] = TrackingTrace(
            mix_name=mix_name,
            minutes=day.minutes,
            budget_w=day.mpp_w,
            actual_w=np.where(day.on_solar, day.consumed_w, 0.0),
        )
    return traces


# ----------------------------------------------------------------------
# Table 7 — tracking error across the full grid
# ----------------------------------------------------------------------
def table7_tracking_error(
    runner: SimulationRunner | None = None,
    mixes: tuple[str, ...] = ALL_MIX_NAMES,
    months: tuple[int, ...] = EVALUATED_MONTHS,
) -> dict[tuple[str, int], dict[str, float]]:
    """Mean relative tracking error per (location, month) x mix (Table 7).

    Returns:
        ``{(location_code, month): {mix_name: error}}``.
    """
    runner = runner or default_runner
    table: dict[tuple[str, int], dict[str, float]] = {}
    for location in ALL_LOCATIONS:
        for month in months:
            row = {}
            for mix_name in mixes:
                day = runner.day(mix_name, location.code, month, "MPPT&Opt")
                row[mix_name] = day.mean_tracking_error
            table[(location.code, month)] = row
    return table


# ----------------------------------------------------------------------
# Figures 15-17 — the Fixed-Power sweeps
# ----------------------------------------------------------------------
def fig15_duration_vs_threshold(
    budgets_w: tuple[float, ...] = DEFAULT_BUDGETS_W,
    mix_name: str = "HM2",
    runner: SimulationRunner | None = None,
    locations=ALL_LOCATIONS,
    months: tuple[int, ...] = EVALUATED_MONTHS,
) -> dict[tuple[str, int], list[tuple[float, float]]]:
    """Effective operation duration vs power-transfer threshold (Figure 15).

    Returns:
        ``{(location, month): [(budget, duration_fraction), ...]}`` — the
        per-case decline curves the paper groups into slow/linear/rapid.
    """
    runner = runner or default_runner
    curves: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for location in locations:
        for month in months:
            curve = []
            for budget in budgets_w:
                day = runner.fixed_day(mix_name, location.code, month, budget)
                curve.append((budget, day.effective_duration_fraction))
            curves[(location.code, month)] = curve
    return curves


def _fixed_vs_solarcore(
    metric: str,
    budgets_w: tuple[float, ...],
    mixes: tuple[str, ...],
    runner: SimulationRunner,
    locations=ALL_LOCATIONS,
    months: tuple[int, ...] = EVALUATED_MONTHS,
) -> dict[str, dict[int, list[tuple[float, float]]]]:
    """Shared sweep for Figures 16 (energy) and 17 (PTP)."""
    out: dict[str, dict[int, list[tuple[float, float]]]] = {}
    for location in locations:
        per_month: dict[int, list[tuple[float, float]]] = {}
        for month in months:
            points = []
            for budget in budgets_w:
                ratios = []
                for mix_name in mixes:
                    solarcore = runner.day(mix_name, location.code, month, "MPPT&Opt")
                    fixed = runner.fixed_day(mix_name, location.code, month, budget)
                    if metric == "energy":
                        base = solarcore.solar_used_wh
                        value = fixed.solar_used_wh
                    else:
                        base = solarcore.ptp
                        value = fixed.ptp
                    ratios.append(value / base if base > 0 else 0.0)
                points.append((budget, float(np.mean(ratios))))
            per_month[month] = points
        out[location.code] = per_month
    return out


def fig16_energy_vs_threshold(
    budgets_w: tuple[float, ...] = DEFAULT_BUDGETS_W,
    mixes: tuple[str, ...] = ("H1", "L1", "HM2", "ML2"),
    runner: SimulationRunner | None = None,
    locations=ALL_LOCATIONS,
    months: tuple[int, ...] = EVALUATED_MONTHS,
) -> dict[str, dict[int, list[tuple[float, float]]]]:
    """Fixed-Power solar energy drawn, normalized to SolarCore (Figure 16)."""
    return _fixed_vs_solarcore(
        "energy", budgets_w, mixes, runner or default_runner, locations, months
    )


def fig17_ptp_vs_threshold(
    budgets_w: tuple[float, ...] = DEFAULT_BUDGETS_W,
    mixes: tuple[str, ...] = ("H1", "L1", "HM2", "ML2"),
    runner: SimulationRunner | None = None,
    locations=ALL_LOCATIONS,
    months: tuple[int, ...] = EVALUATED_MONTHS,
) -> dict[str, dict[int, list[tuple[float, float]]]]:
    """Fixed-Power PTP, normalized to SolarCore (Figure 17)."""
    return _fixed_vs_solarcore(
        "ptp", budgets_w, mixes, runner or default_runner, locations, months
    )


# ----------------------------------------------------------------------
# Figures 18-20 — utilization and duration
# ----------------------------------------------------------------------
def fig18_energy_utilization(
    runner: SimulationRunner | None = None,
    mixes: tuple[str, ...] = ALL_MIX_NAMES,
    months: tuple[int, ...] = EVALUATED_MONTHS,
    locations=ALL_LOCATIONS,
) -> dict[str, dict[str, dict[str, float]]]:
    """Average energy utilization by location x mix x policy (Figure 18).

    Returns:
        ``{location: {mix: {policy: utilization}}}`` — compare against the
        battery bounds in :data:`BATTERY_BOUNDS`.
    """
    runner = runner or default_runner
    out: dict[str, dict[str, dict[str, float]]] = {}
    for location in locations:
        per_mix: dict[str, dict[str, float]] = {}
        for mix_name in mixes:
            per_policy = {}
            for policy in POLICIES:
                days = [
                    runner.day(mix_name, location.code, month, policy)
                    for month in months
                ]
                used = sum(d.solar_used_wh for d in days)
                available = sum(d.solar_available_wh for d in days)
                per_policy[policy] = used / available if available > 0 else 0.0
            per_mix[mix_name] = per_policy
        out[location.code] = per_mix
    return out


def fig19_effective_duration(
    runner: SimulationRunner | None = None,
    mix_name: str = "HM2",
) -> dict[tuple[str, int], float]:
    """Effective operation duration per (location, month) (Figure 19)."""
    runner = runner or default_runner
    return {
        (location.code, month): runner.day(
            mix_name, location.code, month, "MPPT&Opt"
        ).effective_duration_fraction
        for location in ALL_LOCATIONS
        for month in EVALUATED_MONTHS
    }


def fig20_utilization_vs_duration(
    runner: SimulationRunner | None = None,
    mixes: tuple[str, ...] = ALL_MIX_NAMES,
    months: tuple[int, ...] = EVALUATED_MONTHS,
    locations=ALL_LOCATIONS,
) -> dict[tuple[float, float], dict[str, float]]:
    """Mean utilization per effective-duration bucket x policy (Figure 20)."""
    runner = runner or default_runner
    days: dict[str, list] = {policy: [] for policy in POLICIES}
    for location in locations:
        for month in months:
            for mix_name in mixes:
                for policy in POLICIES:
                    days[policy].append(
                        runner.day(mix_name, location.code, month, policy)
                    )
    buckets = {policy: bucket_by_duration(days[policy]) for policy in POLICIES}
    return {
        bucket: {
            policy: float(np.mean([day.energy_utilization for day in in_bucket]))
            if (in_bucket := buckets[policy][bucket]) else float("nan")
            for policy in POLICIES
        }
        for bucket in DURATION_BUCKETS
    }


# ----------------------------------------------------------------------
# Figure 21 — the headline performance comparison
# ----------------------------------------------------------------------
def fig21_normalized_ptp(
    runner: SimulationRunner | None = None,
    mixes: tuple[str, ...] = ALL_MIX_NAMES,
    months: tuple[int, ...] = EVALUATED_MONTHS,
    locations=ALL_LOCATIONS,
) -> dict[tuple[str, int, str], dict[str, float]]:
    """PTP of every policy normalized to Battery-L (Figure 21).

    Returns:
        ``{(location, month, mix): {policy_or_battery: normalized PTP}}``.
    """
    runner = runner or default_runner
    out: dict[tuple[str, int, str], dict[str, float]] = {}
    for location in locations:
        for month in months:
            for mix_name in mixes:
                days = {
                    policy: runner.day(mix_name, location.code, month, policy)
                    for policy in POLICIES
                }
                for battery in ("Battery-U", "Battery-L"):
                    days[battery] = runner.battery_day(
                        mix_name, location.code, month, BATTERY_BOUNDS[battery]
                    )
                out[(location.code, month, mix_name)] = normalized_ptp(
                    days, "Battery-L"
                )
    return out
