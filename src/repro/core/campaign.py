"""Multi-day simulation campaigns.

A *campaign* runs many day simulations — several weather realizations per
(station, month) cell — and aggregates distributional statistics.  This is
how a deployment question is answered ("what utilization should a Phoenix
installation expect in July, across weather?") rather than the single
seeded day each paper figure shows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.simulation import DayResult
from repro.environment.irradiance import default_seed
from repro.environment.locations import Location, location_by_code
from repro.metrics.carbon import CarbonReport, carbon_report
from repro.telemetry import hub as telemetry_hub

__all__ = ["CampaignCell", "CampaignResult", "campaign_tasks", "run_campaign"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignCell:
    """Aggregated statistics of one (station, month) campaign cell.

    Attributes:
        location_code: Station code.
        month: Calendar month.
        days: The individual day results.
    """

    location_code: str
    month: int
    days: tuple[DayResult, ...]

    def _values(self, attribute: str) -> np.ndarray:
        return np.array([getattr(day, attribute) for day in self.days])

    def mean(self, attribute: str) -> float:
        """Mean of a DayResult attribute across the cell's days."""
        return float(np.mean(self._values(attribute)))

    def std(self, attribute: str) -> float:
        """Standard deviation of a DayResult attribute across days."""
        return float(np.std(self._values(attribute)))

    def quantile(self, attribute: str, q: float) -> float:
        """Quantile of a DayResult attribute across days."""
        return float(np.quantile(self._values(attribute), q))


@dataclass(frozen=True)
class CampaignResult:
    """A full campaign: every requested cell plus overall aggregates.

    Attributes:
        mix_name: Workload mix simulated.
        policy: Power-management policy.
        days_per_cell: Weather realizations per (station, month).
        cells: One :class:`CampaignCell` per (station, month).
    """

    mix_name: str
    policy: str
    days_per_cell: int
    cells: tuple[CampaignCell, ...]

    def cell(self, location_code: str, month: int) -> CampaignCell:
        """Look up one campaign cell."""
        for cell in self.cells:
            if cell.location_code == location_code and cell.month == month:
                return cell
        raise KeyError(f"no cell for ({location_code}, {month})")

    @property
    def all_days(self) -> list[DayResult]:
        """Every simulated day across all cells."""
        return [day for cell in self.cells for day in cell.days]

    @property
    def overall_utilization(self) -> float:
        """Energy-weighted utilization over the whole campaign."""
        days = self.all_days
        available = sum(d.solar_available_wh for d in days)
        if available <= 0.0:
            return 0.0
        return sum(d.solar_used_wh for d in days) / available

    def carbon(self) -> CarbonReport:
        """Carbon accounting over the whole campaign."""
        return carbon_report(self.all_days)


def campaign_tasks(
    mix_name: str,
    locations,
    months,
    days_per_cell: int,
    policy: str = "MPPT&Opt",
    base_seed: int = 0,
    faults: str | None = None,
) -> list:
    """A campaign's ``mppt`` sweep tasks, in (station, month, realization)
    order; the arguments are :func:`run_campaign`'s, with ``locations``
    given as registered :class:`Location` objects or station codes.

    Realization ``i`` of a (station, month) cell uses seed
    ``default_seed(station, month) + base_seed + i``, so campaigns are
    deterministic yet realizations are independent.  ``repro campaign``
    and a service ``campaign`` job both expand through here, so they
    simulate the same days and share disk-cache entries.
    """
    from repro.harness.parallel import SweepTask

    tasks = []
    for location in locations:
        if not isinstance(location, Location):
            location = location_by_code(location)
        for month in months:
            first_seed = default_seed(location, month) + base_seed
            tasks.extend(
                SweepTask(
                    "mppt", mix_name, location.code, month, policy=policy,
                    seed=first_seed + i, faults=faults,
                )
                for i in range(days_per_cell)
            )
    return tasks


def run_campaign(
    mix_name: str,
    locations: list[Location],
    months: tuple[int, ...],
    days_per_cell: int = 5,
    policy: str = "MPPT&Opt",
    config: SolarCoreConfig | None = None,
    base_seed: int = 0,
    runner=None,
    faults: str | None = None,
) -> CampaignResult:
    """Run a multi-realization campaign over a (station, month) grid.

    Each cell simulates ``days_per_cell`` independent weather realizations
    (see :func:`campaign_tasks` for their seeds), all through one
    :class:`~repro.harness.runner.SimulationRunner` prefetch.  The days
    come back frozen (read-only arrays), and a day that fails every
    attempt raises :class:`~repro.harness.parallel.SweepError`.

    Args:
        mix_name: Table 5 workload mix.
        locations: Registered stations to include.
        months: Months to include.
        days_per_cell: Weather realizations per cell.
        policy: Power-management policy for every day.
        config: Simulation configuration (for the default runner).
        base_seed: Offset for the realization seeds.
        runner: The :class:`~repro.harness.runner.SimulationRunner` to run
            the grid through — with ``jobs > 1`` the realizations fan out
            across worker processes, and with ``cache_dir=`` they persist
            to (and reload from) the disk cache.  The runner's config is
            used; passing a conflicting ``config`` is an error.  None runs
            an in-process runner over ``config``.
        faults: Fault-schedule spec string applied to every simulated day
            (None = fault-free campaign).

    Returns:
        The :class:`CampaignResult`.
    """
    if days_per_cell < 1:
        raise ValueError(f"days_per_cell must be >= 1, got {days_per_cell}")
    if runner is None:
        from repro.harness.runner import SimulationRunner

        runner = SimulationRunner(config)
    elif config is not None and config != runner.config:
        raise ValueError(
            "run_campaign got both a runner and a conflicting config; "
            "construct the runner with that config instead"
        )
    tasks = campaign_tasks(
        mix_name, locations, months, days_per_cell,
        policy=policy, base_seed=base_seed, faults=faults,
    )
    with telemetry_hub.current().span("run_campaign"):
        results = runner.prefetch(tasks)
    cells = []
    for start in range(0, len(tasks), days_per_cell):
        cell_tasks = tasks[start:start + days_per_cell]
        first = cell_tasks[0]
        cells.append(CampaignCell(
            first.location_code, first.month,
            tuple(results[task] for task in cell_tasks),
        ))
        log.info(
            "campaign cell %s m%d: %d day(s) simulated",
            first.location_code, first.month, days_per_cell,
        )
    return CampaignResult(
        mix_name=mix_name,
        policy=policy,
        days_per_cell=days_per_cell,
        cells=tuple(cells),
    )
