"""The reproduction's capstone: every headline claim, checked in one pass.

``reproduce_headlines`` runs a representative slice of the evaluation grid
and scores each of the paper's headline claims as reproduced or not;
``render_headlines`` prints the comparison card.  The benchmark suite's
``bench_paper_headlines`` asserts the card stays green.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.environment.locations import ALL_LOCATIONS
from repro.harness.experiments import fig01_fixed_load_utilization
from repro.harness.reporting import format_table
from repro.harness.runner import SimulationRunner

__all__ = ["HeadlineClaim", "reproduce_headlines", "render_headlines"]


@dataclass(frozen=True)
class HeadlineClaim:
    """One paper claim and its measured counterpart.

    Attributes:
        claim: The paper's statement.
        paper_value: The number the paper reports.
        measured: What this reproduction measures.
        holds: Whether the claim's *shape* is reproduced.
    """

    claim: str
    paper_value: str
    measured: str
    holds: bool


def reproduce_headlines(
    runner: SimulationRunner,
    mixes: tuple[str, ...] = ("H1", "L1", "HM2", "ML2"),
    months: tuple[int, ...] = (1, 7),
) -> list[HeadlineClaim]:
    """Measure every headline claim on a representative grid slice.

    Args:
        runner: Runs and caches the day simulations.
        mixes: Workload subset (the full ten make the same point slower).
        months: Month subset.

    Returns:
        One :class:`HeadlineClaim` per claim, in the paper's order.
    """
    claims: list[HeadlineClaim] = []

    # -- Figure 1: >50% energy loss for a fixed load at 400 W/m^2.
    fig1 = dict(fig01_fixed_load_utilization())
    loss_400 = 1.0 - fig1[400.0]
    claims.append(HeadlineClaim(
        claim="fixed load at 400 W/m^2 wastes most of the energy (Fig 1)",
        paper_value="> 50 % loss",
        measured=f"{loss_400:.1%} loss",
        holds=loss_400 > 0.5,
    ))

    # -- Shared day grid.
    opt_days = [
        runner.day(mix_name, loc.code, month, "MPPT&Opt")
        for loc in ALL_LOCATIONS
        for month in months
        for mix_name in mixes
    ]

    # -- Abstract: ~82% average green-energy utilization.
    used = sum(d.solar_used_wh for d in opt_days)
    available = sum(d.solar_available_wh for d in opt_days)
    utilization = used / available
    claims.append(HeadlineClaim(
        claim="average solar energy utilization (abstract)",
        paper_value="82 %",
        measured=f"{utilization:.1%}",
        holds=0.74 <= utilization <= 0.92,
    ))

    # -- Table 7: tracking error band and structure.
    errors = [d.mean_tracking_error for d in opt_days]
    h1_errors = [d.mean_tracking_error for d in opt_days if d.mix_name == "H1"]
    l1_errors = [d.mean_tracking_error for d in opt_days if d.mix_name == "L1"]
    if h1_errors and l1_errors:
        h1, l1 = float(np.mean(h1_errors)), float(np.mean(l1_errors))
        structure = f", H1 {h1:.1%} vs L1 {l1:.1%}"
        structure_holds = h1 > l1
    else:  # reduced grids without both mixes check the band only
        structure = ""
        structure_holds = True
    claims.append(HeadlineClaim(
        claim="tracking error band, H1 worse than L1 (Table 7)",
        paper_value="4-22 %, H1 > L1",
        measured=f"{min(errors):.1%}-{max(errors):.1%}{structure}",
        holds=max(errors) < 0.25 and structure_holds,
    ))

    # -- Figure 21: policy ordering and battery parity.
    def grand_mean(policy: str) -> float:
        values = []
        for loc in ALL_LOCATIONS:
            for month in months:
                for mix_name in mixes:
                    base = runner.battery_day(mix_name, loc.code, month, 0.81).ptp
                    values.append(
                        runner.day(mix_name, loc.code, month, policy).ptp / base
                    )
        return float(np.mean(values))

    ic, rr, opt = (grand_mean(p) for p in ("MPPT&IC", "MPPT&RR", "MPPT&Opt"))
    battery_u = 0.92 / 0.81
    claims.append(HeadlineClaim(
        claim="MPPT&Opt beats MPPT&RR (Fig 21)",
        paper_value="+10.8 %",
        measured=f"+{(opt / rr - 1.0):.1%}",
        holds=opt > rr,
    ))
    claims.append(HeadlineClaim(
        claim="MPPT&Opt beats MPPT&IC (Fig 21)",
        paper_value="+37.8 %",
        measured=f"+{(opt / ic - 1.0):.1%}",
        holds=opt / ic > 1.15,
    ))
    claims.append(HeadlineClaim(
        claim="SolarCore within ~1 % of the best battery system (Fig 21)",
        paper_value="-1 %",
        measured=f"{(opt / battery_u - 1.0):+.1%}",
        holds=abs(opt / battery_u - 1.0) < 0.10,
    ))

    # -- Section 6.2: >= +43% over the best fixed budget.
    best_fixed = 0.0
    reference = runner.day("HM2", "PFCI", 1, "MPPT&Opt").ptp
    for budget in (60.0, 75.0, 100.0, 125.0):
        best_fixed = max(
            best_fixed, runner.fixed_day("HM2", "PFCI", 1, budget).ptp
        )
    advantage = reference / best_fixed - 1.0
    claims.append(HeadlineClaim(
        claim="SolarCore vs best Fixed-Power budget (Fig 17)",
        paper_value=">= +43 %",
        measured=f"+{advantage:.1%}",
        holds=advantage >= 0.30,
    ))

    return claims


def render_headlines(claims: list[HeadlineClaim]) -> str:
    """Render the comparison card."""
    rows = [
        [c.claim, c.paper_value, c.measured, "yes" if c.holds else "NO"]
        for c in claims
    ]
    return format_table(["claim", "paper", "measured", "holds"], rows)
