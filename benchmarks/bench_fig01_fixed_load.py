"""Figure 1: solar energy utilization of a fixed load vs irradiance.

Paper's point: a load matched at 1000 W/m^2 wastes >50% of the available
energy at 400 W/m^2 — the motivation for supply-aware power management.
"""

import time

from benchjson import write_bench_json


def test_fig01_fixed_load(reproduce, out_dir):
    start = time.perf_counter()
    rows = reproduce("fig01")
    elapsed = time.perf_counter() - start

    write_bench_json(
        out_dir,
        "fig01_fixed_load",
        metrics={
            f"utilization_{g:.0f}": u for g, u in rows
        },
        timings_s={"experiment": elapsed},
    )

    assert rows[0][1] > 0.999  # matched at the reference point
    assert dict(rows)[400.0] < 0.5  # the paper's >50% loss
