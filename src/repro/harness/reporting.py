"""ASCII rendering of experiment results in the paper's presentation style.

Each ``render_*`` function is one artifact's only text rendering: the one
``repro experiment`` prints and the figure benchmarks write to
``benchmarks/out/`` (see :mod:`repro.harness.artifacts`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.pv.cell import PVCell
from repro.pv.mpp import find_mpp
from repro.pv.params import bp3180n

__all__ = [
    "format_table",
    "format_series",
    "render_fig01",
    "render_fig04",
    "render_module_curves",
    "render_tracking",
    "render_table7",
    "render_fig15",
    "render_fixed_vs_solarcore",
    "render_fig18",
    "render_fig19",
    "render_fig20",
    "render_fig21_summary",
    "sparkline",
]

_SPARK_CHARS = " .:-=+*#%@"


def format_table(
    headers: list[str],
    rows: list[list[str]],
) -> str:
    """Render a simple fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


def format_series(
    label: str,
    points: Iterable[tuple[float, float]],
    x_fmt: str = "{:.0f}",
    y_fmt: str = "{:.2f}",
) -> str:
    """Render an (x, y) series as one labelled line, paper-axis style."""
    cells = [f"{x_fmt.format(x)}:{y_fmt.format(y)}" for x, y in points]
    return f"{label:20s} " + "  ".join(cells)


def sparkline(values: Iterable[float], width: int = 60) -> str:
    """A one-line ASCII intensity plot of a series (for tracking traces)."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        return ""
    if len(arr) > width:
        # Downsample by block mean.
        edges = np.linspace(0, len(arr), width + 1, dtype=int)
        arr = np.array([arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])])
    top = float(np.max(arr))
    if top <= 0:
        return " " * len(arr)
    scaled = np.clip(arr / top * (len(_SPARK_CHARS) - 1), 0, len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[int(v)] for v in scaled)


def render_fig01(rows: Iterable[tuple[float, float]]) -> str:
    """Render Figure 1: a fixed load's energy utilization per irradiance."""
    return format_table(
        ["irradiance W/m^2", "energy utilization"],
        [[f"{g:.0f}", f"{u:.1%}"] for g, u in rows],
    )


def render_fig04(curve) -> str:
    """Render Figure 4: the cell's I-V/P-V sparklines and its exact MPP."""
    mpp = find_mpp(PVCell(bp3180n().cell), curve.irradiance, curve.temperature_c)
    lines = [
        f"I-V  |{sparkline(curve.current)}|",
        f"P-V  |{sparkline(curve.power)}|",
        format_table(
            ["landmark", "value"],
            [
                ["Isc", f"{curve.isc:.3f} A"],
                ["Voc", f"{curve.voc:.3f} V"],
                ["Vmpp", f"{mpp.voltage:.3f} V"],
                ["Impp", f"{mpp.current:.3f} A"],
                ["Pmax", f"{mpp.power:.3f} W"],
            ],
        ),
    ]
    return "\n".join(lines)


def render_module_curves(curves: Mapping, key_header: str) -> str:
    """Render Figures 6/7: one row of landmarks per module curve, keyed by
    the swept quantity (irradiance or temperature)."""
    rows = []
    for key in sorted(curves):
        v, i, p = curves[key].approximate_mpp
        rows.append(
            [f"{key:.0f}", f"{curves[key].isc:.2f}", f"{curves[key].voc:.2f}",
             f"{v:.2f}", f"{p:.1f}"]
        )
    return format_table([key_header, "Isc A", "Voc V", "Vmpp V", "Pmax W"], rows)


def render_tracking(traces: Mapping) -> str:
    """Render Figures 13/14: budget and actual sparklines per mix, then the
    mean tracking errors."""
    lines = []
    rows = []
    for name, trace in traces.items():
        lines.append(f"{name:4s} budget |{sparkline(trace.budget_w)}|")
        lines.append(f"{name:4s} actual |{sparkline(trace.actual_w)}|")
        rows.append([name, f"{trace.mean_error:.1%}"])
    lines.append(format_table(["mix", "mean tracking error"], rows))
    return "\n".join(lines)


def render_table7(table: Mapping[tuple[str, int], Mapping[str, float]]) -> str:
    """Render the Table 7 grid: rows = (location, month), columns = mixes."""
    keys = sorted(table)
    mixes = list(next(iter(table.values())).keys())
    headers = ["site", "month"] + mixes
    rows = []
    for site, month in keys:
        row = [site, str(month)]
        row.extend(f"{table[(site, month)][m]:.1%}" for m in mixes)
        rows.append(row)
    return format_table(headers, rows)


def render_fig15(
    curves: Mapping[tuple[str, int], Iterable[tuple[float, float]]],
) -> str:
    """Render Figure 15: one duration-vs-threshold series per (site, month)."""
    return "\n".join(
        format_series(f"{site}-{month}", pts)
        for (site, month), pts in sorted(curves.items())
    )


def render_fixed_vs_solarcore(
    data: Mapping[str, Mapping[int, Iterable[tuple[float, float]]]],
) -> str:
    """Render Figures 16/17: one normalized series per (site, month)."""
    return "\n".join(
        format_series(f"{site}-{month}", pts)
        for site, per_month in sorted(data.items())
        for month, pts in sorted(per_month.items())
    )


def render_fig18(
    data: Mapping[str, Mapping[str, Mapping[str, float]]],
    battery_bounds: Mapping[str, float],
) -> str:
    """Render Figure 18: per-location mean utilization per policy."""
    headers = ["site"] + list(next(iter(next(iter(data.values())).values())).keys())
    rows = []
    for site, per_mix in data.items():
        policies = headers[1:]
        means = {
            p: float(np.mean([per_mix[m][p] for m in per_mix])) for p in policies
        }
        rows.append([site] + [f"{means[p]:.1%}" for p in policies])
    bounds = ", ".join(f"{k}={v:.0%}" for k, v in battery_bounds.items())
    return format_table(headers, rows) + f"\n(battery bounds: {bounds})"


def render_fig19(durations: Mapping[tuple[str, int], float]) -> str:
    """Render Figure 19: the solar and utility shares of daytime per
    (site, month)."""
    rows = [
        [site, str(month), f"{frac:.1%}", f"{1.0 - frac:.1%}"]
        for (site, month), frac in sorted(durations.items())
    ]
    return format_table(["site", "month", "solar", "utility"], rows)


def render_fig20(
    data: Mapping[tuple[float, float], Mapping[str, float]],
) -> str:
    """Render Figure 20: mean utilization per duration bucket and policy
    (``-`` for a bucket no day falls in)."""
    policies = list(next(iter(data.values())))
    rows = []
    for (low, high), per_policy in data.items():
        cells = [f"{low:.0%}-{min(high, 1.0):.0%}"]
        cells.extend(
            "-" if math.isnan(per_policy[p]) else f"{per_policy[p]:.1%}"
            for p in policies
        )
        rows.append(cells)
    return format_table(["duration"] + policies, rows)


def render_fig21_summary(
    data: Mapping[tuple[str, int, str], Mapping[str, float]],
) -> str:
    """Render Figure 21 as grand means per policy (normalized to Battery-L)."""
    policies = list(next(iter(data.values())).keys())
    means = {
        p: float(np.mean([row[p] for row in data.values()])) for p in policies
    }
    headers = ["policy", "normalized PTP"]
    rows = [[p, f"{means[p]:.3f}"] for p in policies]
    return format_table(headers, rows)
