"""Unit tests for partial shading and global MPP search."""

import numpy as np
import pytest

from repro.pv.mpp import find_mpp
from repro.pv.shading import ShadedSeriesString, find_global_mpp
from repro.telemetry import Telemetry, telemetry_session


@pytest.fixture
def shaded():
    return ShadedSeriesString((1.0, 0.4))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShadedSeriesString(())

    @pytest.mark.parametrize("factors", [(0.0, 1.0), (1.2,), (-0.5, 0.5)])
    def test_rejects_bad_factors(self, factors):
        with pytest.raises(ValueError):
            ShadedSeriesString(factors)


class TestStringPhysics:
    def test_uniform_string_matches_series_modules(self):
        """With no shading, the string is just N modules in series."""
        from repro.pv.array import PVArray

        uniform = ShadedSeriesString((1.0, 1.0))
        reference = PVArray(modules_series=2)
        for v in (20.0, 50.0, 70.0):
            assert uniform.current(v, 900.0, 40.0) == pytest.approx(
                reference.current(v, 900.0, 40.0), abs=1e-5
            )

    def test_voltage_non_increasing_in_current(self, shaded):
        currents = np.linspace(0.0, shaded.max_string_current(900.0, 40.0), 30)
        voltages = [shaded.string_voltage(float(i), 900.0, 40.0) for i in currents]
        assert all(b <= a + 1e-9 for a, b in zip(voltages, voltages[1:]))

    def test_current_at_voc_is_zero(self, shaded):
        voc = shaded.open_circuit_voltage(900.0, 40.0)
        assert shaded.current(voc, 900.0, 40.0) == pytest.approx(0.0, abs=1e-6)

    def test_max_current_set_by_brightest(self, shaded):
        i_max = shaded.max_string_current(900.0, 40.0)
        assert i_max == pytest.approx(
            shaded.module.short_circuit_current(900.0, 40.0)
        )

    def test_bypass_enables_high_current(self, shaded):
        """At currents above the shaded module's capability the string still
        conducts — the bypass diode carries it at a small negative drop."""
        shaded_isc = shaded.module.short_circuit_current(0.4 * 900.0, 40.0)
        v = shaded.string_voltage(shaded_isc * 1.3, 900.0, 40.0)
        assert v > 0.0  # bright module still delivers voltage

    def test_dark_string(self, shaded):
        assert shaded.current(10.0, 0.0, 25.0) == 0.0
        assert shaded.open_circuit_voltage(0.0, 25.0) == 0.0

    def test_rejects_negative_current(self, shaded):
        with pytest.raises(ValueError):
            shaded.string_voltage(-1.0, 900.0, 40.0)


class TestMultiPeak:
    def test_pv_curve_has_two_peaks(self, shaded):
        voc = shaded.open_circuit_voltage(900.0, 40.0)
        voltages = np.linspace(1.0, voc * 0.999, 80)
        powers = np.array(
            [shaded.power(float(v), 900.0, 40.0) for v in voltages]
        )
        peaks = [
            i
            for i in range(1, len(powers) - 1)
            if powers[i] > powers[i - 1] and powers[i] > powers[i + 1]
        ]
        assert len(peaks) >= 2

    def test_global_mpp_dominates_samples(self, shaded):
        gm = find_global_mpp(shaded, 900.0, 40.0)
        voc = shaded.open_circuit_voltage(900.0, 40.0)
        for v in np.linspace(1.0, voc * 0.999, 150):
            assert shaded.power(float(v), 900.0, 40.0) <= gm.power + 1e-3

    def test_global_beats_deep_shade_naive(self):
        """Deep shading where the bounded (unimodal) search can stall on
        the wrong peak: the global sweep must never be worse."""
        for factors in ((1.0, 0.3), (1.0, 0.6, 0.3), (1.0, 0.8, 0.25)):
            string = ShadedSeriesString(factors)
            gm = find_global_mpp(string, 950.0, 45.0)
            naive = find_mpp(string, 950.0, 45.0)
            assert gm.power >= naive.power - 1e-6

    def test_unshaded_global_equals_unimodal(self):
        string = ShadedSeriesString((1.0, 1.0))
        gm = find_global_mpp(string, 900.0, 40.0)
        um = find_mpp(string, 900.0, 40.0)
        assert gm.power == pytest.approx(um.power, rel=1e-3)


class TestSolverAccounting:
    """The string's root-finds follow the shared solver contract.

    Regression: :meth:`ShadedSeriesString.current` used to call scipy's
    ``brentq`` raw, bypassing both the ``power.brentq_*`` telemetry
    counters and the :class:`OperatingPointError` wrapping every other
    solver in the repo honours.
    """

    def test_string_current_books_brentq_counters(self, shaded):
        hub = Telemetry()
        with telemetry_session(hub):
            shaded.current(30.0, 900.0, 40.0)
        counters = hub.snapshot()["counters"]
        assert counters["power.brentq_calls"] >= 1
        assert counters["power.brentq_iterations"] >= counters["power.brentq_calls"]

    def test_partial_shading_day_books_solver_calls(self):
        """A whole simulated day on a shaded string lands on the counters."""
        from repro.core.config import SolarCoreConfig
        from repro.core.simulation import run_day
        from repro.environment.locations import location_by_code

        hub = Telemetry()
        with telemetry_session(hub):
            run_day(
                "HM2", location_by_code("AZ"), 7,
                config=SolarCoreConfig(step_minutes=10.0),
                array=ShadedSeriesString((1.0, 0.4)),
            )
        counters = hub.snapshot()["counters"]
        assert counters["power.brentq_calls"] > 0
        assert counters["power.brentq_iterations"] > 0

    def test_unbracketable_solve_raises_operating_point_error(
        self, shaded, monkeypatch
    ):
        from repro.power.operating_point import OperatingPointError

        monkeypatch.setattr(
            shaded, "string_voltage",
            lambda i, g, t: float("nan") if i > 0 else 100.0,
        )
        with pytest.raises(OperatingPointError, match="shaded-string"):
            shaded.current(30.0, 900.0, 40.0)

    def test_profiling_off_leaves_result_unchanged(self, shaded):
        quiet = shaded.current(30.0, 900.0, 40.0)
        hub = Telemetry(profile=True)
        with telemetry_session(hub):
            profiled = shaded.current(30.0, 900.0, 40.0)
        assert profiled == quiet
