"""Shared definitions of the end-to-end benchmark: paths, cells, reference.

Every benchmark process imports this module first.  It locates the
repository from its own file, so the benchmark runs from any checkout
root, and it puts ``src/`` on ``sys.path`` before anything imports
``repro``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "exact_reference.json"

#: Worker processes of the batch runners; equal to the 2-core host's nproc.
JOBS = 2

#: Scratch space for caches, journals and trace files; removed after a run.
WORK_ROOT = ROOT / ".e2ebench_work"

#: Aggregates stored per cell in the exact reference, by task kind.
DAY_FIELDS = ("ptp", "solar_used_wh", "utility_wh", "mean_tracking_error",
              "effective_duration_fraction")
BATTERY_FIELDS = ("ptp", "harvested_wh")


def require_source() -> None:
    """Exit with code 2 when the program's sources are not beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    Drops every ``SOLARCORE_*`` override (a persisted surface directory
    would skip the per-worker surface build this benchmark measures) and
    points ``PYTHONPATH`` at the checkout's sources.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOLARCORE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def figures_tasks():
    """The 132 cells ``reproduce_headlines`` reads, as sweep tasks.

    4 stations x months 1 and 7 x H1/L1/HM2/ML2 x the three MPPT
    policies, plus Battery-L on the same cells, plus HM2 at PFCI in
    January at the four fixed budgets the Section 6.2 claim compares.
    """
    from repro.environment.locations import ALL_LOCATIONS
    from repro.harness.experiments import BATTERY_BOUNDS, POLICIES
    from repro.harness.parallel import SweepTask, grid_tasks

    tasks = grid_tasks(
        ("H1", "L1", "HM2", "ML2"), ALL_LOCATIONS, (1, 7),
        policies=POLICIES, deratings=(BATTERY_BOUNDS["Battery-L"],),
    )
    tasks += [
        SweepTask("fixed", "HM2", "PFCI", 1, budget_w=budget)
        for budget in (60.0, 75.0, 100.0, 125.0)
    ]
    return tasks


def cell_id(task) -> str:
    """Stable text name of a task, used as the reference's key."""
    return f"{task.kind}|{task.mix_name}|{task.location_code}|{task.month}|{task.param}"


def aggregates(task, result) -> dict[str, float]:
    """The per-cell aggregates the reference stores for ``task``."""
    names = BATTERY_FIELDS if task.kind == "battery" else DAY_FIELDS
    return {name: float(getattr(result, name)) for name in names}


def load_reference() -> dict[str, dict[str, float]]:
    """The committed exact-solver aggregates, keyed by :func:`cell_id`."""
    return json.loads(REFERENCE_PATH.read_text())["cells"]


def table_error(cells, reference: dict) -> tuple[float, str]:
    """Largest relative deviation of PTP and solar energy used.

    ``cells`` yields ``(cell_id, values)`` pairs; every cell the reference
    also covers is compared (battery cells use the harvested energy as
    their solar energy used).  Returns the error and the ``cell:field``
    where it occurs.
    """
    worst, where = 0.0, ""
    for cid, values in cells:
        ref = reference.get(cid)
        if ref is None:
            continue
        for name in ("ptp", "solar_used_wh", "harvested_wh"):
            if ref.get(name, 0.0) == 0.0:
                continue
            err = abs(float(values[name]) - ref[name]) / abs(ref[name])
            if err > worst:
                worst, where = err, f"{cid}:{name}"
    return worst, where


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    return float(statistics.median(values))
