"""Figure 14: MPP tracking accuracy under an irregular weather pattern
(July at Phoenix, AZ — monsoon clouds) for H1, HM2, and L1."""


def test_fig14_tracking_jul_az(reproduce):
    traces = reproduce("fig14")

    assert traces["H1"].mean_error < 0.3
    assert traces["L1"].mean_error <= traces["H1"].mean_error
