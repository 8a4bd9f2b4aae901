"""One iteration of a batch workload, in a fresh process from empty caches.

Usage (``run.py`` starts it; the checkout root is the working directory)::

    python3 e2ebench/batch.py --workload figures_exact --seed 1 --work DIR
        [--setup-only] [--trace-dir DIR]

The process imports the program, opens ``SimulationRunner(jobs=2,
cache_dir=DIR/cache)`` and prints ``READY``; ``run.py`` times set-up as
spawn-to-``READY``.  ``--setup-only`` exits there.  Otherwise it
prefetches the workload's cells in an order shuffled by ``--seed``,
builds the workload's experiments from the runner, checks every output
and prints one JSON line with the work interval (``perf_counter``
start and length), the checks and the peak resident memory of itself
plus its pool workers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import common

common.require_source()

from repro.core.config import SolarCoreConfig  # noqa: E402
from repro.harness import experiments as exp  # noqa: E402
from repro.harness.paper_summary import reproduce_headlines  # noqa: E402
from repro.harness.runner import SimulationRunner  # noqa: E402
from repro.power.surface import OperatingSurfaces  # noqa: E402

#: grid_table fails its check above this table_rel_err.  The seed measured
#: 2.3e-2; the ceiling catches an accuracy collapse of the table path, it
#: is not the 1e-2 per-day bound of the golden table-mode tests.
TABLE_REL_ERR_CEILING = 0.05


def _record_fallbacks(directory: Path) -> None:
    """Leave a file per surface fallback (a path the workloads never take).

    Fallbacks happen in pool workers, whose surface counters die with
    them; a marker file is how an untraced run can still check for zero.
    """
    directory.mkdir(parents=True, exist_ok=True)
    original = OperatingSurfaces._note_fallback

    def note(self) -> None:
        original(self)
        with open(directory / f"pid-{os.getpid()}", "a") as fh:
            fh.write("fallback\n")

    OperatingSurfaces._note_fallback = note


def _shuffle_within_cells(tasks: list, seed: int) -> list:
    """``tasks`` with each (station, month) cell's tasks in seeded order.

    The pool runs one chunk per cell in first-seen order, so the cells
    keep their order: shuffling them would change how the chunks pack
    onto the two workers, and with it the wall time, from seed to seed.
    """
    cells: dict[tuple, list] = {}
    for task in tasks:
        cells.setdefault(task.cell, []).append(task)
    rng = random.Random(seed)
    out = []
    for group in cells.values():
        rng.shuffle(group)
        out.extend(group)
    return out


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _grid_experiments(runner, span) -> list[tuple[str, bool]]:
    """Every Section-6 artifact from the runner, each with a shape check."""
    checks = []
    with span("experiments.table7"):
        table7 = exp.table7_tracking_error(runner)
    checks.append(("table7", len(table7) == 16 and all(
        len(row) == 10 and _finite(row.values()) for row in table7.values())))
    for month, name in ((1, "fig13"), (7, "fig14")):
        with span(f"experiments.{name}"):
            traces = exp.fig13_14_tracking(month, runner=runner)
        checks.append((name, len(traces) == 3 and all(
            math.isfinite(t.mean_error) for t in traces.values())))
    with span("experiments.fig15"):
        fig15 = exp.fig15_duration_vs_threshold(runner=runner)
    checks.append(("fig15", len(fig15) == 16 and all(
        len(curve) == 5 for curve in fig15.values())))
    for name, build in (("fig16", exp.fig16_energy_vs_threshold),
                        ("fig17", exp.fig17_ptp_vs_threshold)):
        with span(f"experiments.{name}"):
            fig = build(runner=runner)
        checks.append((name, len(fig) == 4 and all(
            len(points) == 5 and _finite(v for _, v in points)
            for per_month in fig.values() for points in per_month.values())))
    with span("experiments.fig18"):
        fig18 = exp.fig18_energy_utilization(runner)
    checks.append(("fig18", len(fig18) == 4 and all(
        len(per_policy) == 3 and _finite(per_policy.values())
        for per_mix in fig18.values() for per_policy in per_mix.values())))
    with span("experiments.fig19"):
        fig19 = exp.fig19_effective_duration(runner)
    checks.append(("fig19", len(fig19) == 16 and _finite(fig19.values())))
    with span("experiments.fig20"):
        fig20 = exp.fig20_utilization_vs_duration(runner)
    checks.append(("fig20", len(fig20) > 0))
    with span("experiments.fig21"):
        fig21 = exp.fig21_normalized_ptp(runner)
    checks.append(("fig21", len(fig21) == 160 and all(
        _finite(row.values()) for row in fig21.values())))
    return checks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("figures_exact", "grid_table"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_dir is not None:
        import tracing

        tracer = tracing.install(args.trace_dir)
    grid = args.workload == "grid_table"
    if grid:
        _record_fallbacks(args.work / "fallbacks")
    runner = SimulationRunner(
        SolarCoreConfig(solver="table" if grid else "exact"),
        jobs=common.JOBS, cache_dir=args.work / "cache",
    )
    print("READY", flush=True)
    if args.setup_only:
        return 0

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    reference = common.load_reference()
    start = time.perf_counter()
    with span("workload"):
        from repro.harness.experiments import standard_grid_tasks

        tasks = _shuffle_within_cells(
            standard_grid_tasks() if grid else common.figures_tasks(), args.seed)
        results = runner.prefetch(tasks)
        checks = _grid_experiments(runner, span) if grid else []
        with span("experiments.headlines"):
            claims = reproduce_headlines(runner)
    work_s = time.perf_counter() - start

    failed_cells = [common.cell_id(t) for t in tasks if t not in results]
    if grid:
        table_err, where = common.table_error(
            ((common.cell_id(t), common.aggregates(t, r)) for t, r in results.items()),
            reference)
        fallbacks = sum(
            len(p.read_text().splitlines())
            for p in (args.work / "fallbacks").glob("pid-*"))
        checks.append(("table_rel_err", table_err <= TABLE_REL_ERR_CEILING))
        checks.append(("zero_fallbacks", fallbacks == 0))
    else:
        table_err, where = 0.0, ""
        for task in tasks:
            if task in results and common.aggregates(task, results[task]) != reference.get(
                    common.cell_id(task)):
                failed_cells.append(common.cell_id(task))
    checks += [(f"claim: {c.claim}", c.holds) for c in claims]

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer is not None:
        tracer.flush()
    print(json.dumps({
        "days": len(results),
        "work_start": start,
        "work_s": work_s,
        "cells": len(tasks),
        "failed_cells": failed_cells,
        "checks": checks,
        "table_rel_err": table_err,
        "table_rel_err_at": where,
        "peak_rss_mb": (self_kb + common.JOBS * worker_kb) / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
