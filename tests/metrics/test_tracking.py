"""Unit tests for the relative tracking error, ``DayResult.mean_tracking_error``."""

import numpy as np
import pytest

from repro.core.simulation import DayResult


def fake_day(budget, actual, location="PFCI", month=1, mix_name="H1") -> DayResult:
    budget = np.asarray(budget, dtype=float)
    actual = np.asarray(actual, dtype=float)
    n = len(budget)
    return DayResult(
        mix_name=mix_name,
        location_code=location,
        month=month,
        policy="test",
        minutes=np.arange(n, dtype=float),
        mpp_w=budget,
        consumed_w=actual,
        throughput_gips=np.full(n, 5.0),
        on_solar=np.full(n, True),
        retired_ginst_solar=1.0,
        retired_ginst_total=1.0,
        utility_wh=0.0,
    )


class TestRelativeError:
    def test_exact_tracking_zero_error(self):
        day = fake_day([100, 100], [100, 100])
        assert day.mean_tracking_error == 0.0

    def test_known_error(self):
        day = fake_day([100, 100], [90, 110])
        assert day.mean_tracking_error == pytest.approx(0.1)

    def test_symmetric_in_sign(self):
        under = fake_day([100], [80])
        over = fake_day([100], [120])
        assert under.mean_tracking_error == over.mean_tracking_error

