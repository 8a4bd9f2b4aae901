"""Figure 18: average solar energy utilization per station x workload x
policy, against the battery-system bounds."""

import numpy as np


def test_fig18_energy_utilization(reproduce):
    data = reproduce("fig18")

    # Headline: overall average utilization around the paper's 82%.
    all_opt = [
        data[site][mix_name]["MPPT&Opt"]
        for site in data
        for mix_name in data[site]
    ]
    overall = float(np.mean(all_opt))
    assert 0.74 < overall < 0.92

    # Site ordering follows the resource classes (Table 2).
    site_means = {
        site: float(np.mean([data[site][m]["MPPT&Opt"] for m in data[site]]))
        for site in data
    }
    assert site_means["PFCI"] > site_means["ECSU"] > site_means["ORNL"]

    # AZ beats the typical battery system's 81% upper bound (paper: +5%).
    assert site_means["PFCI"] > 0.81
