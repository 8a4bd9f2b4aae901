"""Figure 19: effective operation duration (% daytime on solar vs utility)
per station and month."""

import numpy as np


def test_fig19_effective_duration(reproduce):
    durations = reproduce("fig19")

    per_site = {
        site: float(np.mean([durations[(site, m)] for m in (1, 4, 7, 10)]))
        for site in ("PFCI", "BMS", "ECSU", "ORNL")
    }
    # Resource-class ordering, with the rich sites in the paper's 60-90%+.
    assert per_site["PFCI"] >= per_site["BMS"] >= per_site["ORNL"]
    assert per_site["PFCI"] > 0.6
    assert per_site["ORNL"] < per_site["PFCI"]
