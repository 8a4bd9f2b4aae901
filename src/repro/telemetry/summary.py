"""Post-run rendering of a telemetry hub as ASCII tables.

The CLI prints :func:`render_summary` after ``simulate``/``campaign``/
``experiment`` when telemetry is on, and :func:`render_profile` when the
profile is armed, in the same fixed-width style as the paper-figure
tables (:mod:`repro.harness.reporting`).  Both read the hub's one timer
table, so a timed region shows the same total wherever it appears.
"""

from __future__ import annotations

from repro.telemetry.hub import NullTelemetry, Telemetry
from repro.telemetry.timers import is_partition

__all__ = ["render_summary", "render_profile", "format_duration", "WORK_COUNTER_PREFIXES"]

#: Counters that describe solver work and which day path ran; the
#: profile report and the run ledger's ``solver`` section list these.
WORK_COUNTER_PREFIXES = ("power.", "surface.", "fastday.")


def format_duration(seconds: float) -> str:
    """Human-scale rendering of a duration: us/ms/s as appropriate."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def _format_table(headers, rows) -> str:
    # Imported here, not at module top: repro.harness pulls in the whole
    # experiment stack (which itself imports telemetry) — a top-level
    # import would be circular.
    from repro.harness.reporting import format_table

    return format_table(headers, rows)


def render_summary(telemetry: Telemetry | NullTelemetry) -> str:
    """Render counters, gauges, histograms, and timers as tables.

    A profiling hub leaves its timers to :func:`render_profile`, so no
    timer is printed twice.  Returns an empty string for a disabled hub
    or one with no data, so callers can ``print`` unconditionally.
    """
    if not telemetry.enabled:
        return ""
    snap = telemetry.snapshot()
    sections: list[str] = []

    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    if counters or gauges:
        rows = [[name, f"{value:g}"] for name, value in counters.items()]
        rows.extend([f"{name} (gauge)", f"{value:g}"] for name, value in gauges.items())
        sections.append(
            "telemetry counters\n" + _format_table(["metric", "value"], rows)
        )

    rows = [
        [
            name,
            f"{stats['count']:g}",
            f"{stats['mean']:.2f}",
            f"{stats['p50']:.2f}",
            f"{stats['p95']:.2f}",
            f"{stats['max']:.2f}",
        ]
        for name, stats in snap.get("histograms", {}).items()
        if stats["count"] > 0
    ]
    if rows:
        sections.append(
            "telemetry distributions\n"
            + _format_table(["histogram", "n", "mean", "p50", "p95", "max"], rows)
        )

    timers = snap.get("timers", {})
    if timers and not telemetry.profiling:
        rows = [
            [
                name,
                f"{stats['count']:g}",
                format_duration(stats["total"]),
                format_duration(stats["self_s"]),
                format_duration(stats["mean"]),
                format_duration(stats["p95"]),
                format_duration(stats["max"]),
            ]
            for name, stats in timers.items()
        ]
        sections.append(
            "timers\n"
            + _format_table(["timer", "n", "total", "self", "mean", "p95", "max"], rows)
        )

    return "\n\n".join(sections)


def render_profile(telemetry: Telemetry | NullTelemetry, top: int = 12) -> str:
    """The "where does the time go" report as fixed-width ASCII tables.

    Three sections: the timer breakdown (partition phases with their
    share of the measured day wall, day regions and nested timers marked
    as such), the work counters (``brentq`` calls/iterations with
    per-call means, surface fallbacks, ``fastday.declined.*``), and a
    per-sweep-cell rollup when day profiles carry cells.  Returns an
    empty string for a hub that is not profiling or timed nothing.
    """
    if not telemetry.profiling or not telemetry.timers:
        return ""
    table = telemetry.timers
    sections: list[str] = []
    wall = table.total_wall_s
    day_names = {day.name for day in table.days}

    ordered = sorted(table.values(), key=lambda t: t.total, reverse=True)
    rows = []
    for timer in ordered[:top]:
        if timer.name in day_names:
            share = "day"
        elif wall > 0 and is_partition(timer.name):
            share = f"{timer.total / wall:6.1%}"
        else:
            share = "nested"
        rows.append([
            timer.name,
            f"{timer.count:d}",
            format_duration(timer.total),
            format_duration(timer.mean),
            share,
        ])
    header = f"phase breakdown (top {min(top, len(ordered))} of {len(ordered)})"
    sections.append(
        header + "\n" + _format_table(["phase", "calls", "total", "mean", "share"], rows)
    )
    if table.days:
        sections.append(
            f"attributed {table.coverage:.1%} of "
            f"{format_duration(wall)} day wall-time across {len(table.days)} day(s)"
            + (
                f" ({table.truncated_days} day profile(s) dropped over "
                f"the {table.max_days}-day cap)"
                if table.truncated_days
                else ""
            )
        )

    counters = {
        name: counter.value
        for name, counter in telemetry.registry.counters.items()
        if name.startswith(WORK_COUNTER_PREFIXES)
    }
    if counters:
        rows = []
        calls = counters.get("power.brentq_calls", 0.0)
        for name, value in sorted(counters.items()):
            per_call = ""
            if name == "power.brentq_iterations" and calls > 0:
                per_call = f"{value / calls:.1f} / call"
            rows.append([name, f"{value:g}", per_call])
        sections.append(
            "work counters\n" + _format_table(["counter", "total", "mean"], rows)
        )

    cells = {cell: days for cell, days in table.by_cell().items() if cell is not None}
    if cells:
        rows = []
        for cell, days in sorted(cells.items(), key=lambda kv: str(kv[0])):
            cell_wall = sum(d.wall_s for d in days)
            cell_attr = sum(d.attributed_s for d in days)
            rows.append([
                " ".join(str(part) for part in cell),
                f"{len(days):d}",
                format_duration(cell_wall),
                f"{cell_attr / cell_wall:6.1%}" if cell_wall > 0 else "-",
            ])
        sections.append(
            "per-cell wall-time\n"
            + _format_table(["cell", "days", "wall", "attributed"], rows)
        )

    return "\n\n".join(sections)
