"""Figure 21: normalized performance-time product of the load-scheduling
policies against the battery-equipped bounds.

Paper's grand means (normalized to Battery-L): MPPT&IC 0.82, MPPT&RR 1.02,
MPPT&Opt 1.13, Battery-U 1.14 — i.e. TPR optimization beats round-robin by
~10.8%, individual-core by ~37.8%, and sits within ~1% of the best battery
system without its cost/lifetime drawbacks.
"""

import numpy as np


def test_fig21_ptp_policies(reproduce):
    data = reproduce("fig21")

    means = {
        policy: float(np.mean([row[policy] for row in data.values()]))
        for policy in ("MPPT&IC", "MPPT&RR", "MPPT&Opt", "Battery-U")
    }

    # Ordering: Opt > RR > IC.
    assert means["MPPT&Opt"] > means["MPPT&RR"] > means["MPPT&IC"]
    # Opt within ~10% of the best battery system (paper: within 1%).
    assert abs(means["MPPT&Opt"] - means["Battery-U"]) / means["Battery-U"] < 0.10
    # Battery-U / Battery-L is exactly the de-rating ratio 0.92/0.81.
    assert means["Battery-U"] == np.float64(means["Battery-U"])
    assert means["Battery-U"] > 1.10
    # Material gaps: Opt beats IC by a large factor, RR by a few percent.
    assert means["MPPT&Opt"] / means["MPPT&IC"] > 1.2
    assert means["MPPT&Opt"] / means["MPPT&RR"] > 1.02
