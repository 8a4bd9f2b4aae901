"""Figure 7: BP3180N module I-V/P-V curves across temperature (G = 1000)."""


def test_fig07_temperature_curves(reproduce):
    curves = reproduce("fig07")

    # Paper: hotter -> Voc falls faster than Isc rises; MPP shifts left and
    # total power drops.
    ts = sorted(curves)
    vocs = [curves[t].voc for t in ts]
    iscs = [curves[t].isc for t in ts]
    vmpps = [curves[t].approximate_mpp[0] for t in ts]
    pmaxes = [curves[t].approximate_mpp[2] for t in ts]
    assert all(b < a for a, b in zip(vocs, vocs[1:]))
    assert all(b > a for a, b in zip(iscs, iscs[1:]))
    assert all(b < a for a, b in zip(vmpps, vmpps[1:]))
    assert all(b < a for a, b in zip(pmaxes, pmaxes[1:]))
