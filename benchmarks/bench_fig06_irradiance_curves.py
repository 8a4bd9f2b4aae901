"""Figure 6: BP3180N module I-V/P-V curves across irradiance (T = 25 C)."""


def test_fig06_irradiance_curves(reproduce):
    curves = reproduce("fig06")

    # Paper: higher irradiance -> more photocurrent, MPPs move upward.
    gs = sorted(curves)
    iscs = [curves[g].isc for g in gs]
    pmaxes = [curves[g].approximate_mpp[2] for g in gs]
    assert all(b > a for a, b in zip(iscs, iscs[1:]))
    assert all(b > a for a, b in zip(pmaxes, pmaxes[1:]))
