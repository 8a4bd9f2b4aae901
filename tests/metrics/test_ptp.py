"""Unit tests for PTP aggregation."""

import numpy as np
import pytest

from repro.core.simulation import DayResult
from repro.metrics.ptp import geometric_mean, normalized_ptp


def fake_day(ptp: float) -> DayResult:
    n = 4
    return DayResult(
        mix_name="H1",
        location_code="PFCI",
        month=1,
        policy="test",
        minutes=np.arange(n, dtype=float),
        mpp_w=np.full(n, 100.0),
        consumed_w=np.full(n, 90.0),
        throughput_gips=np.full(n, 5.0),
        on_solar=np.full(n, True),
        retired_ginst_solar=ptp,
        retired_ginst_total=ptp,
        utility_wh=0.0,
    )


class TestNormalizedPTP:
    def test_normalizes_to_baseline(self):
        results = {"a": fake_day(100.0), "base": fake_day(50.0)}
        normed = normalized_ptp(results, "base")
        assert normed["a"] == pytest.approx(2.0)
        assert normed["base"] == pytest.approx(1.0)

    def test_missing_baseline_raises(self):
        with pytest.raises(KeyError):
            normalized_ptp({"a": fake_day(1.0)}, "base")

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            normalized_ptp({"base": fake_day(0.0)}, "base")


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

