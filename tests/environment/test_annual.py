"""Year-round environment: ``Location.regime_for`` / ``temps_for``
interpolate the paper's four anchor months cyclically, and
``generate_trace`` takes any calendar month through them."""

import pytest

from repro.environment.irradiance import generate_trace
from repro.environment.locations import GOLDEN_CO, PHOENIX_AZ


class TestInterpolatedRegime:
    def test_anchor_months_pass_through(self):
        for month in (1, 4, 7, 10):
            assert PHOENIX_AZ.regime_for(month) is PHOENIX_AZ.regimes[month]

    def test_midpoint_blend(self):
        # February/March sit between the Jan and Apr anchors.
        jan = PHOENIX_AZ.regimes[1]
        apr = PHOENIX_AZ.regimes[4]
        for month in (2, 3):
            regime = PHOENIX_AZ.regime_for(month)
            for name in ("base_clearness", "events_per_hour", "event_depth",
                         "event_minutes", "volatility"):
                lo, hi = sorted((getattr(jan, name), getattr(apr, name)))
                assert lo <= getattr(regime, name) <= hi, (month, name)

    def test_wraparound_months(self):
        # November/December blend October toward January.
        oct_r = PHOENIX_AZ.regimes[10]
        jan_r = PHOENIX_AZ.regimes[1]
        lo, hi = sorted((oct_r.base_clearness, jan_r.base_clearness))
        for month in (11, 12):
            assert lo <= PHOENIX_AZ.regime_for(month).base_clearness <= hi
        # December lies nearer January than November does.
        nov, dec = PHOENIX_AZ.regime_for(11), PHOENIX_AZ.regime_for(12)
        assert abs(dec.base_clearness - jan_r.base_clearness) <= abs(
            nov.base_clearness - jan_r.base_clearness)

    def test_rejects_bad_month(self):
        with pytest.raises(ValueError):
            PHOENIX_AZ.regime_for(13)


class TestInterpolatedTemps:
    def test_anchor_passthrough(self):
        assert GOLDEN_CO.temps_for(7) == GOLDEN_CO.temps_c[7]

    def test_summer_warmer_than_winter(self):
        t_min_jun, t_max_jun = GOLDEN_CO.temps_for(6)
        t_min_dec, t_max_dec = GOLDEN_CO.temps_for(12)
        assert t_max_jun > t_max_dec
        assert t_min_jun > t_min_dec

    def test_ordering_preserved(self):
        for month in range(1, 13):
            t_min, t_max = GOLDEN_CO.temps_for(month)
            assert t_min < t_max


class TestGenerateMonthTrace:
    def test_interpolated_month_generates(self):
        trace = generate_trace(PHOENIX_AZ, 6, step_minutes=5.0)
        assert trace.daily_insolation_kwh_m2() > 3.0
