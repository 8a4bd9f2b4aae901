"""Figure 4: single-cell I-V and P-V characteristics with the MPP."""

from repro.pv.cell import PVCell
from repro.pv.mpp import find_mpp
from repro.pv.params import bp3180n


def test_fig04_cell_curves(reproduce):
    curve = reproduce("fig04")
    mpp = find_mpp(PVCell(bp3180n().cell), 1000.0, 25.0)

    assert 0.0 < mpp.voltage < curve.voc
    assert mpp.power > 0.8 * curve.voc * curve.isc * 0.7  # sane fill factor
