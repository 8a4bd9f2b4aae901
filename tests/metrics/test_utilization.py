"""Unit tests for Figure 20's effective-duration buckets."""

import numpy as np

from repro.core.simulation import DayResult
from repro.metrics.utilization import DURATION_BUCKETS, bucket_by_duration


def fake_day(mpp: float, consumed: float, solar_fraction: float = 1.0) -> DayResult:
    n = 10
    on_solar = np.arange(n) < int(round(solar_fraction * n))
    return DayResult(
        mix_name="H1",
        location_code="PFCI",
        month=1,
        policy="test",
        minutes=np.arange(n, dtype=float),
        mpp_w=np.full(n, mpp),
        consumed_w=np.where(on_solar, consumed, 0.0),
        throughput_gips=np.full(n, 5.0),
        on_solar=on_solar,
        retired_ginst_solar=1.0,
        retired_ginst_total=1.0,
        utility_wh=0.0,
    )


class TestBuckets:
    def test_assignment(self):
        day_high = fake_day(100, 90, 1.0)  # duration 1.0 -> (0.9, 1.01)
        day_mid = fake_day(100, 90, 0.72)  # 7/10 samples -> (0.7, 0.8)
        buckets = bucket_by_duration([day_high, day_mid])
        assert day_high in buckets[(0.9, 1.01)]
        assert day_mid in buckets[(0.7, 0.8)]

    def test_below_lowest_dropped(self):
        day = fake_day(100, 90, 0.3)
        buckets = bucket_by_duration([day])
        assert all(day not in days for days in buckets.values())

    def test_bucket_edges_cover_paper_figure(self):
        assert DURATION_BUCKETS[0] == (0.9, 1.01)
        assert DURATION_BUCKETS[-1] == (0.5, 0.6)
