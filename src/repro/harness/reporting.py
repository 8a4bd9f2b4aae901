"""ASCII rendering of experiment results in the paper's presentation style."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

__all__ = [
    "format_table",
    "format_series",
    "render_table7",
    "render_fig18",
    "render_fig21_summary",
    "render_telemetry_summary",
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


def render_telemetry_summary(telemetry=None) -> str:
    """Render the (current) telemetry hub's counters and timers.

    The reporting-side hook for observability: benchmark scripts that
    already import :mod:`repro.harness.reporting` can print where a
    figure's simulation time went without importing the telemetry package
    directly.

    Args:
        telemetry: Hub to render (default: the process-wide hub).

    Returns:
        ASCII tables, or an empty string when telemetry is disabled.
    """
    from repro.telemetry import current, render_summary

    return render_summary(telemetry if telemetry is not None else current())


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
