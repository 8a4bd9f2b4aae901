"""Rack-scale budget coordination over a shared solar farm.

The paper's introduction motivates SolarCore with datacenter deployments
(Google/Microsoft/Yahoo solar farms).  This extension scales the
single-chip scheme up one level: a rack of chips shares one PV farm, a
rack coordinator tracks the farm's MPP and divides the harvested budget
across chips, and each chip's local allocator (the Fixed-Power TPR-greedy
machinery) spends its share.

Division policies mirror the paper's per-core ones, one level up:

* ``equal``        — every chip gets the same share (rack-level RR);
* ``proportional`` — shares scale with each chip's maximum demand;
* ``tpr``          — water-filling by marginal throughput per watt
  (rack-level Opt): each budget quantum goes to the chip whose next
  DVFS step buys the most instructions.
"""

from __future__ import annotations

import logging

from repro.core.tpr import upgrade_tpr
from repro.multicore.chip import MultiCoreChip
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.events import RackDivisionEvent

__all__ = ["divide_budget", "DIVISION_POLICIES"]

log = logging.getLogger(__name__)

DIVISION_POLICIES = ("equal", "proportional", "tpr")


def _floors(chips: list[MultiCoreChip], minute: float, gating: bool) -> list[float]:
    return [chip.floor_power_at(minute, with_gating=gating) for chip in chips]


def divide_budget(
    chips: list[MultiCoreChip],
    budget_w: float,
    minute: float,
    policy: str = "tpr",
    allow_gating: bool = True,
) -> list[float]:
    """Split a rack budget across chips; returns one share per chip [W].

    Shares always cover each chip's floor when the budget allows; a budget
    below the sum of floors returns all-zero shares (the rack falls back to
    the utility).

    Args:
        chips: The rack's chips.
        budget_w: Harvested rack budget [W].
        minute: Simulation time (phase IPCs are time-dependent).
        policy: ``equal``, ``proportional``, or ``tpr``.
        allow_gating: Whether chip floors assume PCPG.
    """
    if not chips:
        raise ValueError("a rack needs at least one chip")
    if policy not in DIVISION_POLICIES:
        raise KeyError(
            f"unknown division policy {policy!r}; known: {DIVISION_POLICIES}"
        )
    tel = telemetry_hub.current()
    with tel.span("rack.divide_budget"):
        shares = _divide(chips, budget_w, minute, policy, allow_gating)
    if tel.enabled:
        tel.count("rack.divisions")
        tel.emit(
            RackDivisionEvent(
                minute=minute,
                policy=policy,
                budget_w=budget_w,
                shares_w=tuple(shares),
            )
        )
    return shares


def _divide(
    chips: list[MultiCoreChip],
    budget_w: float,
    minute: float,
    policy: str,
    allow_gating: bool,
) -> list[float]:
    floors = _floors(chips, minute, allow_gating)
    if budget_w < sum(floors):
        return [0.0] * len(chips)

    if policy == "equal":
        surplus = budget_w - sum(floors)
        return [floor + surplus / len(chips) for floor in floors]

    if policy == "proportional":
        maxima = [chip.max_power_at(minute) for chip in chips]
        headrooms = [m - f for m, f in zip(maxima, floors)]
        total_headroom = sum(headrooms)
        surplus = budget_w - sum(floors)
        if total_headroom <= 0:
            return list(floors)
        return [
            floor + surplus * headroom / total_headroom
            for floor, headroom in zip(floors, headrooms)
        ]

    # TPR water-filling: simulate greedy upgrades against virtual budgets.
    shares = list(floors)
    # Work on scratch level assignments so the real chips are untouched.
    saved_levels = [chip.levels for chip in chips]
    saved_gates = [[core.gated for core in chip.cores] for chip in chips]
    try:
        for chip in chips:
            chip.ungate_all()
            chip.set_all_min()
        remaining = budget_w - sum(floors)
        while remaining > 0:
            best_chip_idx = None
            best_tpr = float("-inf")
            best_delta = 0.0
            for i, chip in enumerate(chips):
                for core in chip.cores:
                    tpr = upgrade_tpr(core, minute)
                    if tpr is None or tpr <= best_tpr:
                        continue
                    delta = (
                        core.power_at_level(core.level + 1, minute)
                        - core.power_at(minute)
                    )
                    if delta <= remaining:
                        best_chip_idx, best_tpr, best_delta = i, tpr, delta
                        best_core = core
            if best_chip_idx is None:
                break
            best_core.set_level(best_core.level + 1)
            shares[best_chip_idx] += best_delta
            remaining -= best_delta
        return shares
    finally:
        for chip, levels, gates in zip(chips, saved_levels, saved_gates):
            chip.set_levels(levels)
            for core, gated in zip(chip.cores, gates):
                if gated:
                    core.gate()
                else:
                    core.ungate()
