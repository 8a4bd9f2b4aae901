"""Unit tests for the single-diode PV cell model."""

import math
import random
import struct
import sys
import threading

import numpy as np
import pytest

from repro.pv.array import PVArray
from repro.pv.cell import PVCell, lambertw_of_exp
from repro.pv.params import CellParameters, bp3180n
from repro.telemetry import telemetry_session


@pytest.fixture
def cell() -> PVCell:
    return PVCell(bp3180n().cell)


class TestLambertWOfExp:
    @pytest.mark.parametrize("y", [-50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 50.0, 400.0])
    def test_matches_scipy(self, y):
        from scipy.special import lambertw

        expected = float(lambertw(math.exp(y)).real)
        assert lambertw_of_exp(y) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("y", [800.0, 5000.0, 1e6])
    def test_overflow_region_satisfies_defining_equation(self, y):
        w = lambertw_of_exp(y)
        assert w + math.log(w) == pytest.approx(y, rel=1e-9)

    def test_monotone_increasing(self):
        ys = np.linspace(-10, 10, 100)
        ws = [lambertw_of_exp(float(y)) for y in ys]
        assert all(b > a for a, b in zip(ws, ws[1:]))


class TestPhotocurrent:
    def test_zero_in_darkness(self, cell):
        assert cell.photocurrent(0.0, 25.0) == 0.0
        assert cell.photocurrent(-5.0, 25.0) == 0.0

    def test_proportional_to_irradiance(self, cell):
        half = cell.photocurrent(500.0, 25.0)
        full = cell.photocurrent(1000.0, 25.0)
        assert full == pytest.approx(2.0 * half)

    def test_stc_equals_isc_ref(self, cell):
        assert cell.photocurrent(1000.0, 25.0) == pytest.approx(
            cell.params.isc_ref, rel=1e-9
        )

    def test_increases_with_temperature(self, cell):
        assert cell.photocurrent(1000.0, 50.0) > cell.photocurrent(1000.0, 25.0)


class TestSaturationCurrent:
    def test_strongly_increases_with_temperature(self, cell):
        i0_25 = cell.saturation_current(25.0)
        i0_50 = cell.saturation_current(50.0)
        # Roughly doubles every ~10 C for silicon.
        assert i0_50 / i0_25 > 5.0

    def test_positive(self, cell):
        assert cell.saturation_current(0.0) > 0.0


class TestIVCharacteristic:
    def test_calibrated_voc_at_stc(self, cell):
        assert cell.open_circuit_voltage(1000.0, 25.0) == pytest.approx(
            cell.params.voc_ref, rel=1e-6
        )

    def test_isc_close_to_photocurrent(self, cell):
        isc = cell.short_circuit_current(1000.0, 25.0)
        assert isc == pytest.approx(cell.params.isc_ref, rel=1e-3)

    def test_current_decreases_with_voltage(self, cell):
        voltages = np.linspace(0.0, cell.params.voc_ref, 50)
        currents = cell.currents(voltages, 1000.0, 25.0)
        assert all(b < a for a, b in zip(currents, currents[1:]))

    def test_voltage_is_exact_inverse_of_current(self, cell):
        for v in (0.1, 0.3, 0.5, 0.55):
            i = cell.current(v, 1000.0, 25.0)
            assert cell.voltage(i, 1000.0, 25.0) == pytest.approx(v, abs=1e-9)

    def test_negative_current_beyond_voc(self, cell):
        voc = cell.open_circuit_voltage(1000.0, 25.0)
        assert cell.current(voc * 1.05, 1000.0, 25.0) < 0.0

    def test_voltage_rejects_impossible_current(self, cell):
        isc = cell.short_circuit_current(1000.0, 25.0)
        with pytest.raises(ValueError, match="exceeds"):
            cell.voltage(isc * 1.5, 1000.0, 25.0)

    def test_voc_decreases_with_temperature(self, cell):
        voc_cold = cell.open_circuit_voltage(1000.0, 0.0)
        voc_hot = cell.open_circuit_voltage(1000.0, 75.0)
        assert voc_hot < voc_cold

    def test_dark_cell_produces_no_open_circuit_voltage(self, cell):
        assert cell.open_circuit_voltage(0.0, 25.0) == 0.0

    def test_power_at_landmarks_is_zero(self, cell):
        voc = cell.open_circuit_voltage(1000.0, 25.0)
        assert cell.power(0.0, 1000.0, 25.0) == 0.0
        assert cell.power(voc, 1000.0, 25.0) == pytest.approx(0.0, abs=1e-6)

    def test_zero_series_resistance_branch(self):
        params = CellParameters(isc_ref=5.4, voc_ref=0.6, series_resistance=0.0)
        cell = PVCell(params)
        # With Rs = 0, I(V) is the pure diode equation.
        assert cell.current(0.0, 1000.0, 25.0) == pytest.approx(5.4)
        assert cell.open_circuit_voltage(1000.0, 25.0) == pytest.approx(0.6, rel=1e-6)


# ----------------------------------------------------------------------
# The characteristic as it was computed inline on every call, before the
# per-(G, T) terms: the reference the kept terms must reproduce bit for bit.
# ----------------------------------------------------------------------
def _inline_lambertw_of_exp(y):
    if y > 2.0:
        u = math.log(y - math.log(y))
    elif y < -2.0:
        u = y
    else:
        u = -0.5671432904097838 + 0.5 * y
    for _ in range(64):
        ew = math.exp(u)
        step = (ew + u - y) / (ew + 1.0)
        u -= step
        if abs(step) <= 1e-15 * max(abs(u), 1.0):
            break
    return math.exp(u)


def _inline_current(cell, voltage, irradiance, temperature_c):
    p = cell.params
    vt = p.thermal_voltage(temperature_c)
    iph = cell.photocurrent(irradiance, temperature_c)
    i0 = cell.saturation_current(temperature_c)
    if p.series_resistance == 0.0:
        return iph - i0 * math.expm1(voltage / vt)
    rs = p.series_resistance
    log_arg = math.log(i0 * rs / vt) + (voltage + (iph + i0) * rs) / vt
    return iph + i0 - (vt / rs) * _inline_lambertw_of_exp(log_arg)


def _inline_voltage(cell, current, irradiance, temperature_c):
    p = cell.params
    vt = p.thermal_voltage(temperature_c)
    iph = cell.photocurrent(irradiance, temperature_c)
    i0 = cell.saturation_current(temperature_c)
    headroom = iph + i0 - current
    if headroom <= 0.0:
        raise ValueError(
            f"current {current} A exceeds the cell's source capability "
            f"({iph + i0:.6g} A); no forward operating point exists"
        )
    return vt * math.log(headroom / i0) - current * p.series_resistance


def _inline_voc(cell, irradiance, temperature_c):
    if irradiance <= 0.0:
        return 0.0
    return _inline_voltage(cell, 0.0, irradiance, temperature_c)


def _outcome(fn, *args):
    """``fn``'s result as (type, IEEE bits), or its error as (type, message)."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)
    return type(value), struct.pack("<d", value)


_ZERO_RS = CellParameters(isc_ref=5.4, voc_ref=0.6, series_resistance=0.0)


class TestKeptTermsAreTheInlineForm:
    """The terms a cell keeps per (G, T) change no bit of any answer."""

    @pytest.mark.parametrize(
        "y",
        [-800.0, -50.0, -2.0, -0.0, 0.0, 1e-300, 2.0, 50.0, 709.0, 800.0, 1e6,
         1e308, math.inf, -math.inf, math.nan],
    )
    def test_lambertw_matches_inline_builtins(self, y):
        assert _outcome(lambertw_of_exp, y) == _outcome(_inline_lambertw_of_exp, y)

    def test_lambertw_matches_inline_builtins_on_a_seeded_sweep(self):
        rng = random.Random(20261019)
        for _ in range(4000):
            y = rng.uniform(-60.0, 60.0) * 10.0 ** rng.randint(-3, 3)
            assert _outcome(lambertw_of_exp, y) == _outcome(_inline_lambertw_of_exp, y)

    @pytest.mark.parametrize("params", [bp3180n().cell, _ZERO_RS], ids=["bp3180n", "rs0"])
    def test_current_voltage_and_voc_match_inline_form(self, params):
        cell = PVCell(params)
        rng = random.Random(7)
        # A small pool of (G, T) revisited at random, so consecutive calls
        # both reuse the kept terms and replace them.  Dark inputs, both
        # zeros, NumPy scalars (float32 computes in its own precision) and
        # NaN are in the pool; a current of 1e3 A compares voltage()'s
        # error message.
        pool = [(0.0, 25.0), (-5.0, 40.0), (-0.0, -0.0), (1000.0, 25.0),
                (np.float64(800.0), 25.0), (800.0, 25.0), (np.float32(800.0), 25.0),
                (math.nan, 25.0), (600.0, math.nan)]
        pool += [(rng.uniform(1.0, 1300.0), rng.uniform(-40.0, 90.0)) for _ in range(40)]
        points = 0
        with telemetry_session() as hub:
            for _ in range(2500):
                g, t = rng.choice(pool)
                voc = _inline_voc(cell, g, t)
                v = rng.choice([0.0, rng.uniform(0.0, 0.8), voc, voc * 1.1, -0.05])
                i = rng.choice([0.0, rng.uniform(-1.0, 7.0), 1e3])
                assert _outcome(cell.current, v, g, t) == _outcome(_inline_current, cell, v, g, t)
                assert _outcome(cell.voltage, i, g, t) == _outcome(_inline_voltage, cell, i, g, t)
                assert _outcome(cell.open_circuit_voltage, g, t) == _outcome(_inline_voc, cell, g, t)
                points += 3
        builds = hub.snapshot()["counters"]["pv.term_builds"]
        assert points >= 6000
        # Both paths ran: most calls reused terms, and the pool's revisits
        # rebuilt them many times.
        assert 500 < builds < points / 2

    def test_nan_input_never_reuses_terms(self, cell):
        with telemetry_session() as hub:
            for _ in range(3):
                assert math.isnan(cell.current(0.3, math.nan, 25.0))
        assert hub.snapshot()["counters"]["pv.term_builds"] == 3

    def test_unchanged_conditions_build_terms_once(self, cell):
        with telemetry_session() as hub:
            for v in np.linspace(0.0, 0.7, 50):
                cell.current(float(v), 900.0, 30.0)
            cell.voltage(1.0, 900.0, 30.0)
            cell.open_circuit_voltage(900.0, 30.0)
        assert hub.snapshot()["counters"]["pv.term_builds"] == 1

    def test_threads_sharing_an_array_get_their_serial_answers(self):
        array = PVArray()
        conditions = [(150.0 + 110.0 * k, 5.0 + 7.0 * k) for k in range(8)]
        voltages = [0.5 * j for j in range(92)]  # past every Voc

        def answers(g, t):
            return (
                [array.current(v, g, t) for v in voltages],
                array.open_circuit_voltage(g, t),
                array.voltage(0.5, g, t),
            )

        serial = [answers(g, t) for g, t in conditions]
        wrong = []

        def worker(k):
            g, t = conditions[k]
            for _ in range(30):
                if answers(g, t) != serial[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
