"""Regenerate ``exact_reference.json``: the exact-solver aggregates of the
132 ``figures_exact`` cells.

Usage, from the checkout root::

    python3 e2ebench/make_reference.py

``figures_exact`` compares its results with this file bit for bit, and
``grid_table`` / ``service_mixed`` measure ``table_rel_err`` against it.
Regenerate it only when a change is meant to move exact-mode results;
the golden fixtures then move too.
"""

from __future__ import annotations

import json
import sys

import common

common.require_source()

from repro.core.config import SolarCoreConfig  # noqa: E402
from repro.harness.runner import SimulationRunner  # noqa: E402


def main() -> int:
    tasks = common.figures_tasks()
    runner = SimulationRunner(SolarCoreConfig(solver="exact"), jobs=common.JOBS)
    results = runner.prefetch(tasks)
    doc = {
        "about": "exact-solver per-cell aggregates of the figures_exact cells; "
                 "regenerate with: python3 e2ebench/make_reference.py",
        "day_fields": list(common.DAY_FIELDS),
        "battery_fields": list(common.BATTERY_FIELDS),
        "cells": {
            common.cell_id(task): common.aggregates(task, results[task])
            for task in tasks
        },
    }
    common.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cells'])} cells to {common.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
