"""Figure 13: MPP tracking accuracy under a regular weather pattern
(January at Phoenix, AZ) for H1, HM2, and L1."""


def test_fig13_tracking_jan_az(reproduce):
    traces = reproduce("fig13")

    # Paper: consumption closely follows the budget; H1's ripples make it
    # worse than L1.
    assert traces["H1"].mean_error < 0.25
    assert traces["L1"].mean_error < traces["H1"].mean_error
