"""Fixed-power-budget management (the paper's Fixed-Power baseline, Table 6).

Conventional multi-core power management assumes a constant budget ``B`` and
optimizes throughput under it (linear programming in Teodorescu & Torrellas,
the paper's ref [15]).  In a direct-coupled solar system, ``B`` doubles as
the power-transfer threshold: the chip runs from the panel only while the
panel can supply at least ``B``, otherwise it falls back to the utility.

Two allocators are provided:

* :func:`allocate_budget` — discrete greedy ascent by throughput-power
  ratio; this is what the simulated scheme uses.
* :func:`lp_allocation_bound` — the fractional linear-programming relaxation
  (one assignment variable per core x level); its optimum upper-bounds any
  discrete allocation and anchors the greedy allocator in tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.tpr import upgrade_tpr
from repro.multicore.chip import MultiCoreChip

__all__ = ["allocate_budget", "lp_allocation_bound"]


def allocate_budget(
    chip: MultiCoreChip,
    budget_w: float,
    minute: float,
    allow_gating: bool = True,
) -> float:
    """Assign per-core DVFS levels maximizing throughput under ``budget_w``.

    Starts every core at the bottom level and repeatedly upgrades the core
    with the best throughput-power ratio while the aggregate stays within
    budget.  When the budget cannot sustain all cores even at the bottom
    level and ``allow_gating`` is set, the least efficient cores are
    power-gated until the floor fits.  Mutates the chip's state in place.

    Returns:
        The chip power [W] after allocation.

    Raises:
        ValueError: If the budget cannot sustain even the minimum
            configuration.
    """
    chip.ungate_all()
    chip.set_all_min()
    power = chip.total_power_at(minute)
    if power > budget_w and allow_gating:
        # Shed whole cores, least efficient first, until the floor fits.
        by_efficiency = sorted(
            chip.cores,
            key=lambda c: c.throughput_at(minute) / max(c.power_at(minute), 1e-12),
        )
        for core in by_efficiency:
            if power <= budget_w or len(chip.active_cores()) == 1:
                break
            power -= core.power_at(minute)
            core.gate()
        if power > budget_w:
            # Keeping the most efficient core still busts the budget; fall
            # back to the cheapest core (the eligibility floor's reference).
            cheapest = min(chip.cores, key=lambda c: c.power_at_level(0, minute))
            for core in chip.cores:
                if core is not cheapest:
                    core.gate()
            cheapest.ungate()
            cheapest.set_level(cheapest.table.min_level)
            power = chip.total_power_at(minute)
    if power > budget_w:
        raise ValueError(
            f"budget {budget_w:.1f} W below the chip's floor {power:.1f} W"
        )
    while True:
        # Among affordable upgrades, take the best TPR.
        best_core = None
        best_tpr = float("-inf")
        for core in chip.cores:
            tpr = upgrade_tpr(core, minute)
            if tpr is None or tpr <= best_tpr:
                continue
            delta = core.power_at_level(core.level + 1, minute) - core.power_at(minute)
            if power + delta <= budget_w:
                best_core, best_tpr = core, tpr
        if best_core is None:
            return power
        delta = (
            best_core.power_at_level(best_core.level + 1, minute)
            - best_core.power_at(minute)
        )
        best_core.set_level(best_core.level + 1)
        power += delta


def lp_allocation_bound(chip: MultiCoreChip, budget_w: float, minute: float) -> float:
    """Optimal throughput [GIPS] of the fractional LP relaxation.

    Variables ``x[i, l]`` select (fractionally) level ``l`` for core ``i``:

        maximize   sum x[i,l] * T[i,l]
        subject to sum_l x[i,l] = 1       for every core i
                   sum x[i,l] * P[i,l] <= budget - uncore
                   x >= 0

    The chip's constant uncore power is paid off the top, as in the greedy
    allocator.  Does not mutate the chip.  SciPy is imported here, on the
    first call, so that importing the package never loads it.
    """
    from scipy.optimize import linprog

    budget_w = budget_w - chip.uncore_power_w
    if budget_w <= 0:
        raise ValueError("budget does not even cover the uncore power")
    n_cores = chip.n_cores
    # Per-core level counts: heterogeneous chips have per-type table depths.
    level_counts = [len(core.table) for core in chip.cores]
    offsets = np.concatenate(([0], np.cumsum(level_counts)))
    n_vars = int(offsets[-1])
    throughput = np.empty(n_vars)
    power = np.empty(n_vars)
    for i, core in enumerate(chip.cores):
        for level in range(level_counts[i]):
            throughput[offsets[i] + level] = core.throughput_at_level(level, minute)
            power[offsets[i] + level] = core.power_at_level(level, minute)

    # One-hot (fractional) selection rows.
    a_eq = np.zeros((n_cores, n_vars))
    for i in range(n_cores):
        a_eq[i, offsets[i] : offsets[i + 1]] = 1.0

    result = linprog(
        c=-throughput,
        A_ub=power.reshape(1, -1),
        b_ub=np.array([budget_w]),
        A_eq=a_eq,
        b_eq=np.ones(n_cores),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP allocation failed: {result.message}")
    return float(-result.fun)
