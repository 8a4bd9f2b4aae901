"""Property-based accuracy contract for the operating-point surfaces.

Every table query must honour the surface's *declared* error bound
(measured at build time, widened by the safety factor) against the exact
Lambert-W / ``brentq`` solvers, preserve the monotonicity and continuity
the physics guarantees, and fall back to the exact path — loudly, on the
fallback counters — the moment a query leaves the tabulated domain.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.power.converter import DCDCConverter
from repro.power.operating_point import solve_operating_point
from repro.power.surface import OperatingSurfaces, SurfaceSpec, get_surfaces
from repro.pv.array import PVArray
from repro.pv.mpp import find_mpp

# Stay inside the tabulated envelope with margin; the out-of-domain
# behaviour has its own tests below.
irradiances = st.floats(min_value=2.0, max_value=1400.0)
cell_temps = st.floats(min_value=-25.0, max_value=85.0)
#: ln(rho / rho_mpp) — two units of margin inside the +-12 table span.
rho_logs = st.floats(min_value=-10.0, max_value=10.0)
ratios = st.floats(min_value=0.6, max_value=9.0)
pfracs = st.floats(min_value=0.05, max_value=0.97)


@pytest.fixture(scope="module")
def surfaces() -> OperatingSurfaces:
    surf = get_surfaces(PVArray())
    assert surf is not None
    return surf


def _load_for(surfaces, converter, g, t, rho_log):
    """A load resistance whose reflected rho sits at ``rho_log`` from MPP."""
    mpp = find_mpp(surfaces.device, g, t)
    rho = math.exp(rho_log) * mpp.voltage * mpp.voltage / mpp.power
    return rho / converter.reflected_resistance(1.0)


class TestErrorBound:
    @given(g=irradiances, t=cell_temps)
    @settings(max_examples=60, deadline=None)
    def test_mpp_within_declared_bound(self, surfaces, g, t):
        exact = find_mpp(surfaces.device, g, t)
        table = surfaces.mpp(g, t)
        bound = surfaces.error_report["declared"]
        assert abs(table.power - exact.power) <= bound["mpp_power_rel"] * exact.power
        assert (
            abs(table.voltage - exact.voltage)
            <= bound["mpp_voltage_rel"] * exact.voltage
        )

    @given(g=irradiances, t=cell_temps, k=ratios, x=rho_logs)
    @settings(max_examples=60, deadline=None)
    def test_operating_point_within_declared_bound(self, surfaces, g, t, k, x):
        converter = DCDCConverter(k=k)
        load = _load_for(surfaces, converter, g, t, x)
        assume(load > 1e-9)
        before = surfaces.fallbacks
        table = surfaces.operating_point(converter, load, g, t)
        assume(surfaces.fallbacks == before)  # in-domain draws only
        exact = solve_operating_point(surfaces.device, converter, load, g, t)
        bound = surfaces.error_report["declared"]["op_power_rel"]
        assert abs(table.pv_power - exact.pv_power) <= bound * max(
            exact.pv_power, 1e-9
        )

    @given(g=irradiances, t=cell_temps, pfrac=pfracs)
    @settings(max_examples=60, deadline=None)
    def test_right_branch_hits_target_within_bound(self, surfaces, g, t, pfrac):
        exact = find_mpp(surfaces.device, g, t)
        target = pfrac * exact.power
        v = surfaces.right_branch_voltage(g, t, exact.power, target)
        assume(v is not None)
        delivered = surfaces.device.power(v, g, t)
        bound = surfaces.error_report["declared"]["right_branch_power_rel"]
        assert abs(delivered - target) <= bound * exact.power
        assert v >= exact.voltage * 0.99  # genuinely the right branch

    def test_declared_bounds_exceed_measured(self, surfaces):
        report = surfaces.error_report
        for name, measured in report["measured"].items():
            assert report["declared"][name] >= measured


class TestPhysicalShape:
    @given(t=cell_temps, g_lo=irradiances, g_hi=irradiances)
    @settings(max_examples=60, deadline=None)
    def test_mpp_power_monotone_in_irradiance(self, surfaces, t, g_lo, g_hi):
        assume(g_lo < g_hi)
        p_lo = surfaces.mpp(g_lo, t).power
        p_hi = surfaces.mpp(g_hi, t).power
        assert p_hi >= p_lo * (1.0 - 1e-12)

    @given(g=st.floats(min_value=3.0, max_value=1300.0), t=cell_temps)
    @settings(max_examples=60, deadline=None)
    def test_mpp_power_continuous_in_irradiance(self, surfaces, g, t):
        """A 0.01% irradiance step moves interpolated power by < 0.1%."""
        base = surfaces.mpp(g, t).power
        near = surfaces.mpp(g * 1.0001, t).power
        assert abs(near - base) <= 1e-3 * base

    @given(g=irradiances, t=cell_temps, k=ratios, x=rho_logs)
    @settings(max_examples=40, deadline=None)
    def test_operating_point_sits_on_load_line(self, surfaces, g, t, k, x):
        converter = DCDCConverter(k=k)
        load = _load_for(surfaces, converter, g, t, x)
        assume(load > 1e-9)
        before = surfaces.fallbacks
        op = surfaces.operating_point(converter, load, g, t)
        assume(surfaces.fallbacks == before)
        rho = converter.reflected_resistance(load)
        assert op.pv_current == pytest.approx(op.pv_voltage / rho, rel=1e-12)


class TestFallbacks:
    def test_dark_panel_is_byte_identical_to_exact(self, surfaces):
        for g in (0.0, -10.0):
            assert surfaces.mpp(g, 25.0) == find_mpp(surfaces.device, g, 25.0)

    @pytest.mark.parametrize(
        "g,t",
        [(2000.0, 25.0), (0.5, 25.0), (800.0, 150.0), (800.0, -60.0)],
    )
    def test_out_of_domain_mpp_falls_back_exact_and_counts(self, surfaces, g, t):
        before = surfaces.fallbacks
        table = surfaces.mpp(g, t)
        exact = find_mpp(surfaces.device, g, t)
        assert surfaces.fallbacks == before + 1  # loud, not silent
        assert table == exact  # the exact object's numbers, bit for bit

    def test_out_of_domain_operating_point_falls_back(self, surfaces):
        converter = DCDCConverter(k=3.0)
        before = surfaces.fallbacks
        table = surfaces.operating_point(converter, 5.0, 2000.0, 25.0)
        exact = solve_operating_point(surfaces.device, converter, 5.0, 2000.0, 25.0)
        assert surfaces.fallbacks == before + 1
        assert table == exact

    def test_degenerate_load_keeps_exact_error_contract(self, surfaces):
        from repro.power.operating_point import OperatingPointError

        converter = DCDCConverter(k=3.0)
        with pytest.raises(ValueError):
            surfaces.operating_point(converter, -1.0, 800.0, 40.0)
        with pytest.raises(OperatingPointError):
            surfaces.operating_point(converter, float("nan"), 800.0, 40.0)

    def test_fallbacks_book_profiler_counter(self, surfaces):
        from repro.telemetry import Telemetry, telemetry_session

        hub = Telemetry()
        with telemetry_session(hub):
            surfaces.mpp(2000.0, 25.0)
        assert hub.snapshot()["counters"]["surface.fallbacks"] == 1

    def test_right_branch_out_of_domain_returns_none(self, surfaces):
        exact = find_mpp(surfaces.device, 800.0, 40.0)
        # pfrac above the tabulated ceiling -> caller must run brentq.
        before = surfaces.fallbacks
        assert (
            surfaces.right_branch_voltage(800.0, 40.0, exact.power, exact.power)
            is None
        )
        assert surfaces.fallbacks == before + 1

    def test_unvectorizable_device_yields_no_surface(self):
        from repro.pv.shading import ShadedSeriesString

        assert get_surfaces(ShadedSeriesString((1.0, 0.5))) is None


class TestIdentity:
    def test_key_changes_with_grid_and_device(self, surfaces):
        other_spec = get_surfaces(PVArray(), spec=SurfaceSpec(n_t=6, n_g=6,
                                                              n_rho=8,
                                                              n_pfrac=6,
                                                              error_samples=8))
        other_device = get_surfaces(PVArray(modules_series=2),
                                    spec=SurfaceSpec(n_t=6, n_g=6, n_rho=8,
                                                     n_pfrac=6,
                                                     error_samples=8))
        keys = {surfaces.key, other_spec.key, other_device.key}
        assert len(keys) == 3

    def test_persistence_roundtrip(self, surfaces, tmp_path):
        path = surfaces.save(tmp_path)
        assert path.exists()
        loaded = OperatingSurfaces.load(surfaces.device, surfaces.spec, tmp_path)
        assert loaded is not None
        assert loaded.key == surfaces.key
        g, t = 700.0, 45.0
        assert loaded.mpp(g, t) == surfaces.mpp(g, t)

    def test_corrupt_cache_file_rebuilds(self, surfaces, tmp_path):
        path = surfaces.save(tmp_path)
        path.write_bytes(b"not an npz")
        assert OperatingSurfaces.load(surfaces.device, surfaces.spec, tmp_path) is None
