"""The paper's evaluation artifacts, one table entry each.

Figures 1, 4, 6, 7 and 13-21, Table 7 and the headline claims are each an
:class:`Artifact` in :data:`ARTIFACTS`, in paper order.  ``repro
experiment NAME`` and the figure benchmarks both build a runner, prefetch
the artifact's ``tasks`` (fanned out over the runner's worker processes),
``build`` the data from the runner and ``render`` it; ``repro experiment
all`` prefetches the union of every entry's tasks once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.environment.locations import ALL_LOCATIONS, EVALUATED_MONTHS
from repro.harness import experiments as exp
from repro.harness import reporting
from repro.harness.paper_summary import render_headlines, reproduce_headlines
from repro.harness.parallel import SweepTask, grid_tasks
from repro.harness.runner import SimulationRunner
from repro.workloads.mixes import ALL_MIX_NAMES

__all__ = ["Artifact", "ARTIFACTS"]


@dataclass(frozen=True)
class Artifact:
    """One paper artifact.

    Attributes:
        tasks: Every sweep task ``build`` looks up, and no other (empty for
            the device figures, which simulate no day).
        build: ``build(runner)`` -> the artifact's data.
        render: ``render(data)`` -> the artifact's text.
    """

    tasks: tuple[SweepTask, ...]
    build: Callable[[SimulationRunner], Any]
    render: Callable[[Any], str]


def _grid(mixes=ALL_MIX_NAMES, months=EVALUATED_MONTHS, locations=ALL_LOCATIONS,
          policies=(), budgets_w=(), deratings=()) -> tuple[SweepTask, ...]:
    """The evaluation-grid tasks of the named day kinds only."""
    return tuple(grid_tasks(mixes, locations, months, policies=policies,
                            budgets_w=budgets_w, deratings=deratings))


def _tracking(month: int) -> Artifact:
    return Artifact(
        _grid(mixes=("H1", "HM2", "L1"), months=(month,), locations=("AZ",),
              policies=("MPPT&Opt",)),
        lambda runner: exp.fig13_14_tracking(month, runner),
        reporting.render_tracking,
    )


#: The mixes Figures 16/17 and the headline claims default to.
_FOUR_MIXES = ("H1", "L1", "HM2", "ML2")
_FIXED_VS_SOLARCORE = _grid(mixes=_FOUR_MIXES, policies=("MPPT&Opt",),
                            budgets_w=exp.DEFAULT_BUDGETS_W)

#: Every artifact by its ``repro experiment`` name, in paper order.
ARTIFACTS: dict[str, Artifact] = {
    "fig01": Artifact((), lambda runner: exp.fig01_fixed_load_utilization(),
                      reporting.render_fig01),
    "fig04": Artifact((), lambda runner: exp.fig04_cell_curves(),
                      reporting.render_fig04),
    "fig06": Artifact((), lambda runner: exp.fig06_module_irradiance_curves(),
                      lambda data: reporting.render_module_curves(data, "G W/m^2")),
    "fig07": Artifact((), lambda runner: exp.fig07_module_temperature_curves(),
                      lambda data: reporting.render_module_curves(data, "T C")),
    "fig13": _tracking(1),
    "fig14": _tracking(7),
    "table7": Artifact(_grid(policies=("MPPT&Opt",)), exp.table7_tracking_error,
                       reporting.render_table7),
    "fig15": Artifact(_grid(mixes=("HM2",), budgets_w=exp.DEFAULT_BUDGETS_W),
                      exp.fig15_duration_vs_threshold, reporting.render_fig15),
    "fig16": Artifact(_FIXED_VS_SOLARCORE, exp.fig16_energy_vs_threshold,
                      reporting.render_fixed_vs_solarcore),
    "fig17": Artifact(_FIXED_VS_SOLARCORE, exp.fig17_ptp_vs_threshold,
                      reporting.render_fixed_vs_solarcore),
    "fig18": Artifact(_grid(policies=exp.POLICIES), exp.fig18_energy_utilization,
                      lambda data: reporting.render_fig18(data, exp.BATTERY_BOUNDS)),
    "fig19": Artifact(_grid(mixes=("HM2",), policies=("MPPT&Opt",)),
                      exp.fig19_effective_duration, reporting.render_fig19),
    "fig20": Artifact(_grid(policies=exp.POLICIES),
                      exp.fig20_utilization_vs_duration, reporting.render_fig20),
    "fig21": Artifact(
        _grid(policies=exp.POLICIES, deratings=tuple(exp.BATTERY_BOUNDS.values())),
        exp.fig21_normalized_ptp, reporting.render_fig21_summary,
    ),
    "headlines": Artifact(
        _grid(mixes=_FOUR_MIXES, months=(1, 7), policies=exp.POLICIES,
              deratings=(exp.BATTERY_BOUNDS["Battery-L"],))
        + _grid(mixes=("HM2",), months=(1,), locations=("PFCI",),
                budgets_w=(60.0, 75.0, 100.0, 125.0)),
        reproduce_headlines, render_headlines,
    ),
}
