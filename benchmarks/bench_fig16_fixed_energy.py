"""Figure 16: solar energy drawn under fixed budgets, normalized to
SolarCore — no fixed budget reaches much beyond ~0.7."""


def test_fig16_fixed_energy(reproduce):
    data = reproduce("fig16")

    best = 0.0
    for per_month in data.values():
        for pts in per_month.values():
            best = max(best, max(v for _, v in pts))

    # Paper Section 6.2: best fixed-budget energy utilization is < ~70% of
    # SolarCore's.
    assert best < 0.80
    assert best > 0.40  # but fixed budgets do harvest something real
