"""Tabulated-surface guard: exact vs ``solver="table"`` work and wall-clock.

Runs one full-resolution (1-minute step) day of each simulation kind —
MPPT-tracked, fixed-budget, and battery baseline — through the exact
Lambert-W/``brentq`` solver path and through the tabulated operating-point
surfaces, and records both wall-clocks, the table day's counted solver
work, and the accuracy actually achieved to
``benchmarks/out/surface_speedup.txt`` and the machine-readable
``BENCH_surface_speedup.json``.

Three contracts are enforced, not just recorded:

* **Work** — with its surface built, a table-mode day calls no exact
  solver: no ``power.brentq_calls``, no ``pv.mpp_solves`` beyond a surface
  build's self-check, and no ``surface.fallbacks``.  The counts go into
  the JSON ``metrics``.  A ratio to the exact day would mostly measure
  the exact path, so the per-kind timings and speedups are recorded and
  only warn.  Timings are best-of-``SOLARCORE_BENCH_REPEATS`` (default 5)
  with the surface build paid up front.  Every timed run starts from an
  empty day-environment memo, so each day solves its own MPP series, the
  work that separates the two solvers; a warm memo would time only the
  exact day's operating-point solves.
* **Accuracy** — the table-mode day must land within ``TABLE_REL_BOUND``
  of the exact day on retired instructions and grid energy, and the
  surface's measured interpolation error (its build-time self-report)
  goes into the JSON ``metrics`` section, where the benchjson comparator
  **hard-fails** on any drift.  Timings live in ``timings_s`` and only
  ever warn.
* **Isolation** — the exact path is re-run after the table path and must
  reproduce its own bytes exactly: fast-mode execution may never leak
  state into the reference solver.
"""

from __future__ import annotations

import os
import time

from benchjson import write_bench_json
from conftest import emit

from repro.core.config import SolarCoreConfig
from repro.core.dayenv import clear_environments
from repro.core.simulation import run_day, run_day_battery, run_day_fixed
from repro.environment.locations import location_by_code
from repro.power.surface import SurfaceSpec, get_surfaces
from repro.pv.array import PVArray
from repro.telemetry import telemetry_session

EXACT = SolarCoreConfig()  # full 1-minute cadence
TABLE = SolarCoreConfig(solver="table")

SITE = "AZ"
MONTH = 7
MIX = "HM2"

#: The solver work a table day counts, each named in the JSON metrics
#: as ``<kind>_table_<counter with dots as underscores>``.
WORK_COUNTERS = (
    "power.brentq_calls", "pv.mpp_solves", "surface.builds", "surface.fallbacks",
)
#: Documented accuracy bound for table-mode day aggregates (the golden
#: table-mode suite pins the same contract on the fixture grid).
TABLE_REL_BOUND = 1e-2


def _repeats() -> int:
    return max(1, int(os.environ.get("SOLARCORE_BENCH_REPEATS", "5")))


def _best_of(fn, repeats: int):
    """(best wall-clock [s], last result) over ``repeats`` cold-memo runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        clear_environments()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rel(table: float, exact: float) -> float:
    return abs(table - exact) / max(abs(exact), 1e-9)


def _table_work(day_fn) -> dict[str, float]:
    """:data:`WORK_COUNTERS` of one cold-memo table day."""
    clear_environments()
    with telemetry_session() as hub:
        day_fn(TABLE)
    counters = hub.snapshot()["counters"]
    return {name: counters.get(name, 0.0) for name in WORK_COUNTERS}


def test_surface_speedup(out_dir):
    location = location_by_code(SITE)
    repeats = _repeats()

    kinds = {
        "mppt": lambda cfg: run_day(MIX, location, MONTH, config=cfg),
        "fixed": lambda cfg: run_day_fixed(MIX, location, MONTH, 120.0, config=cfg),
        "battery": lambda cfg: run_day_battery(
            MIX, location, MONTH, 0.81, config=cfg
        ),
    }

    # Pay the surface build once, outside the timed region: a sweep
    # amortizes it over thousands of days, so steady-state is the honest
    # per-day number (the build cost is reported separately below).
    start = time.perf_counter()
    surfaces = get_surfaces(PVArray())
    warm_s = time.perf_counter() - start
    assert surfaces is not None

    rows = []
    metrics: dict[str, float] = {}
    timings: dict[str, float] = {}
    speedups: dict[str, float] = {}
    for kind, day_fn in kinds.items():
        exact_s, exact_day = _best_of(lambda: day_fn(EXACT), repeats)
        table_s, table_day = _best_of(lambda: day_fn(TABLE), repeats)
        speedup = exact_s / table_s if table_s > 0 else float("inf")
        speedups[kind] = speedup

        if kind == "battery":
            rel_retired = _rel(table_day.ptp, exact_day.ptp)
            rel_energy = _rel(table_day.harvested_wh, exact_day.harvested_wh)
        else:
            rel_retired = _rel(
                table_day.retired_ginst_total, exact_day.retired_ginst_total
            )
            rel_energy = _rel(table_day.utility_wh, exact_day.utility_wh)
        assert rel_retired <= TABLE_REL_BOUND, (kind, rel_retired)
        assert rel_energy <= TABLE_REL_BOUND, (kind, rel_energy)

        # With its surface built, the table day does no exact solve.
        work = _table_work(day_fn)
        assert work["power.brentq_calls"] == 0, (kind, work)
        assert work["pv.mpp_solves"] == (
            work["surface.builds"] * SurfaceSpec().error_samples
        ), (kind, work)
        assert work["surface.fallbacks"] == 0, (kind, work)
        for name, value in work.items():
            metrics[f"{kind}_table_{name.replace('.', '_')}"] = value

        # Fast-mode execution must not leak into the exact solver: the
        # exact path re-run after table mode reproduces its own bytes.
        recheck = day_fn(EXACT)
        if kind == "battery":
            assert (recheck.harvested_wh, recheck.ptp) == (
                exact_day.harvested_wh, exact_day.ptp,
            )
        else:
            assert recheck.consumed_w.tobytes() == exact_day.consumed_w.tobytes()
            assert recheck.retired_ginst_total == exact_day.retired_ginst_total

        metrics[f"{kind}_retired_rel_err"] = rel_retired
        metrics[f"{kind}_energy_rel_err"] = rel_energy
        timings[f"{kind}_exact"] = exact_s
        timings[f"{kind}_table"] = table_s
        rows.append(
            f"  {kind:8s} exact {exact_s * 1e3:7.1f} ms   "
            f"table {table_s * 1e3:6.1f} ms   speedup {speedup:5.1f}x   "
            f"retired rel err {rel_retired:.1e}"
        )

    geomean = 1.0
    for s in speedups.values():
        geomean *= s
    geomean **= 1.0 / len(speedups)

    # The surface's build-time self-measured interpolation error: the
    # accuracy trajectory CI hard-fails on (any drift means the grid or
    # the PV model changed without a deliberate re-baseline).
    for name, value in surfaces.error_report["measured"].items():
        metrics[f"surface_measured_{name}"] = value

    report = surfaces.report()
    lines = [
        f"one full-resolution day (1-minute steps), {MIX} @ {SITE} month {MONTH}",
        f"best of {repeats} runs, each on an empty environment memo; "
        f"surface build paid up front "
        f"({warm_s * 1e3:.0f} ms, amortized over a sweep):",
        *rows,
        f"geometric-mean speedup: {geomean:.1f}x (recorded, not asserted)",
        "table-day solver work: "
        + ", ".join(
            f"{kind} {metrics[f'{kind}_table_power_brentq_calls']:.0f} brentq / "
            f"{metrics[f'{kind}_table_pv_mpp_solves']:.0f} MPP solves / "
            f"{metrics[f'{kind}_table_surface_fallbacks']:.0f} fallbacks"
            for kind in kinds
        ),
        "",
        report,
    ]
    emit(out_dir, "surface_speedup", "\n".join(lines))
    write_bench_json(
        out_dir,
        "surface_speedup",
        metrics=metrics,
        timings_s={**timings, "surface_warm": warm_s},
        extra={
            "repeats": repeats,
            "speedups": {k: round(v, 2) for k, v in speedups.items()},
            "geomean_speedup": round(geomean, 2),
            "table_rel_bound": TABLE_REL_BOUND,
            "declared_error_bound": surfaces.error_report["declared"],
        },
    )

