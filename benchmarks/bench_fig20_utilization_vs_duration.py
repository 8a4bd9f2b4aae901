"""Figure 20: average solar energy utilization vs effective operation
duration bucket — utilization collapses when the backup supply carries
much of the day."""

import math


def test_fig20_utilization_vs_duration(reproduce):
    data = reproduce("fig20")

    # Utilization decreases as the effective duration bucket drops.
    opt_by_bucket = [
        per_policy["MPPT&Opt"]
        for bucket, per_policy in data.items()
        if not math.isnan(per_policy["MPPT&Opt"])
    ]
    assert len(opt_by_bucket) >= 3
    assert all(b < a + 0.03 for a, b in zip(opt_by_bucket, opt_by_bucket[1:]))
    # Paper: >= 80% of daytime tracked -> >= ~82% utilization on average.
    top_bucket = data[(0.9, 1.01)]["MPPT&Opt"]
    if not math.isnan(top_bucket):
        assert top_bucket > 0.80
