"""Table 7: average relative tracking error across the full evaluation grid
(4 stations x 4 months x 10 workload mixes)."""

import numpy as np


def test_table7_tracking_error(reproduce):
    table = reproduce("table7")

    errors = np.array([e for row in table.values() for e in row.values()])
    # Paper Table 7 spans ~4-22%; same band here.
    assert 0.02 < errors.min()
    assert errors.max() < 0.25
    assert 0.05 < errors.mean() < 0.15

    # Structure: homogeneous high-EPI (H1) tracks worse than homogeneous
    # low-EPI (L1) on average; heterogeneous HM2 beats H1.
    h1 = np.mean([row["H1"] for row in table.values()])
    l1 = np.mean([row["L1"] for row in table.values()])
    hm2 = np.mean([row["HM2"] for row in table.values()])
    assert h1 > l1
    assert h1 > hm2
