"""Property-based accuracy contract for the operating-point surfaces.

Every table query must honour the surface's *declared* error bound
(measured at build time, widened by the safety factor) against the exact
Lambert-W / ``brentq`` solvers, preserve the monotonicity and continuity
the physics guarantees, and fall back to the exact path — loudly, on the
fallback counters — the moment a query leaves the tabulated domain.  The
tabulated nodes themselves are the model's own roots to float64
round-off, and a build's Lambert-W work is counted, not timed.
"""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.power.converter import DCDCConverter
from repro.power.operating_point import solve_operating_point
from repro.power.surface import OperatingSurfaces, SurfaceSpec, get_surfaces
from repro.pv.array import PVArray
from repro.pv.cell import PVCell
from repro.pv.module import PVModule
from repro.pv.mpp import find_mpp
from repro.pv.params import bp3180n

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

    def test_no_surface_warning_once_per_device_type(self, monkeypatch, caplog):
        """A table-mode fault sweep warns once, not once per day."""
        from repro.core.config import SolarCoreConfig
        from repro.core.simulation import run_day
        from repro.environment.locations import PHOENIX_AZ
        from repro.power import surface as surface_mod

        monkeypatch.setattr(surface_mod, "_UNSUPPORTED_WARNED", set())
        cfg = SolarCoreConfig(step_minutes=10.0, solver="table")
        with caplog.at_level("WARNING", logger="repro.power.surface"):
            for _ in range(2):
                run_day("HM2", PHOENIX_AZ, 7, config=cfg,
                        faults="pv_string@600-660:0.5")
        warned = [r for r in caplog.records if "no operating surface" in r.message]
        assert len(warned) == 1
        assert "FaultyArray" in warned[0].message


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

    def test_concurrent_first_uses_build_once(self, monkeypatch):
        """Two threads asking for a missing surface set get one build and
        the same object."""
        from repro.power import surface as surface_mod

        monkeypatch.setattr(surface_mod, "_REGISTRY", {})
        real_build = OperatingSurfaces.build.__func__
        builds = []

        def slow_counting_build(cls, device, spec=None):
            builds.append(device)
            time.sleep(0.2)  # both threads arrive while the build runs
            return real_build(cls, device, spec)

        monkeypatch.setattr(
            OperatingSurfaces, "build", classmethod(slow_counting_build)
        )
        spec = SurfaceSpec(n_t=6, n_g=6, n_rho=8, n_pfrac=6, error_samples=8)
        device = PVArray()
        barrier = threading.Barrier(2)
        got = []

        def first_use():
            barrier.wait()
            got.append(get_surfaces(device, spec=spec))

        threads = [threading.Thread(target=first_use) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(builds) == 1
        assert len(got) == 2 and got[0] is got[1]


def _rs_free_module() -> PVModule:
    params = bp3180n()
    cell = dataclasses.replace(params.cell, series_resistance=0.0)
    return PVModule(dataclasses.replace(params, cell=cell))


#: A coarse grid for the devices other than the default array.
_SMALL = SurfaceSpec(n_g=8, n_t=6, n_rho=40, n_pfrac=10, error_samples=8)

#: Every composition the closed form serves, with the grid it is built on.
_PRECISION_DEVICES = {
    "array": (PVArray, None),
    "module": (lambda: PVModule(bp3180n()), _SMALL),
    "cell": (lambda: PVCell(bp3180n().cell), _SMALL),
    "module-rs0": (_rs_free_module, _SMALL),
    "array-2x3": (lambda: PVArray(modules_series=2, modules_parallel=3), _SMALL),
}

#: Nodes checked per table, and the seed that draws them.
_NODES = 64
_NODE_SEED = 20261018


def _node_draw(surfaces, n_last: int):
    """Seeded (ig, it, ik) node indices; the first 16 sit on the two ends
    of the last axis (for the load line, ``ln(rho/rho_mpp) = -+12``)."""
    spec = surfaces.spec
    rng = np.random.default_rng(_NODE_SEED)
    ig = rng.integers(0, spec.n_g, _NODES)
    it = rng.integers(0, spec.n_t, _NODES)
    ik = rng.integers(0, n_last, _NODES)
    ik[:8] = 0
    ik[8:16] = n_last - 1
    g_nodes = np.exp(np.linspace(math.log(spec.g_min), math.log(spec.g_max), spec.n_g))
    t_nodes = np.linspace(spec.t_min, spec.t_max, spec.n_t)
    for i, j, k in zip(ig.tolist(), it.tolist(), ik.tolist()):
        vmpp = float(surfaces._vmpp[i, j])
        pmpp = math.exp(float(surfaces._ln_pmpp[i, j]))
        yield (i, j, k, float(g_nodes[i]), float(t_nodes[j]), surfaces._voc_l[i][j],
               vmpp, pmpp)


class TestBuild:
    def test_build_evaluates_lambert_w_at_most_twice_per_load_line_node(
        self, monkeypatch
    ):
        """A build's Lambert-W work, counted in array elements (the same
        on every host): one per load-line node for the closed form, plus
        the MPP golden section's 145 per (G, T) node."""
        from repro.power import surface as surface_mod

        real = surface_mod.lambertw_of_exp_array
        sizes = []

        def counting(log_argument):
            sizes.append(np.size(log_argument))
            return real(log_argument)

        monkeypatch.setattr(surface_mod, "lambertw_of_exp_array", counting)
        OperatingSurfaces.build(PVArray())
        spec = SurfaceSpec()
        assert sum(sizes) <= 2 * spec.n_g * spec.n_t * spec.n_rho

    @pytest.fixture(scope="class", params=sorted(_PRECISION_DEVICES))
    def built(self, request) -> OperatingSurfaces:
        make, spec = _PRECISION_DEVICES[request.param]
        return OperatingSurfaces.build(make(), spec)

    def test_load_line_nodes_are_brentq_roots(self, built):
        spec = built.spec
        x_nodes = np.linspace(spec.ln_rho_norm_min, spec.ln_rho_norm_max, spec.n_rho)
        device = built.device
        for i, j, k, g, t, voc, vmpp, pmpp in _node_draw(built, spec.n_rho):
            rho = math.exp(float(x_nodes[k])) * vmpp * vmpp / pmpp
            v_table = voc / (1.0 + math.exp(-built._vnorm_l[i][j][k]))
            v_exact = brentq(
                lambda v: device.current(v, g, t) - v / rho, 0.0, voc,
                xtol=1e-15 * voc,
            )
            assert abs(v_table - v_exact) <= 1e-12 * voc, (g, t, float(x_nodes[k]))

    def test_right_branch_nodes_are_brentq_roots(self, built):
        spec = built.spec
        pfrac_nodes = np.linspace(0.0, spec.pfrac_max, spec.n_pfrac)
        device = built.device
        for i, j, k, g, t, voc, vmpp, pmpp in _node_draw(built, spec.n_pfrac):
            target = float(pfrac_nodes[k]) * pmpp
            v_table = built._vright_l[i][j][k] * voc
            v_exact = voc if target == 0.0 else brentq(
                lambda v: v * device.current(v, g, t) - target, vmpp, voc,
                xtol=1e-15 * voc,
            )
            assert abs(v_table - v_exact) <= 1e-12 * voc, (g, t, float(pfrac_nodes[k]))
