"""Solar-energy utilization metrics (paper Section 6.3, Figures 18-20).

Utilization is *actual total solar energy consumed / theoretical maximum
solar energy supply* over the daytime window (``DayResult.energy_utilization``).
Figure 20 buckets day results by effective operation duration.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.simulation import DayResult

__all__ = ["bucket_by_duration", "DURATION_BUCKETS"]

#: Figure 20's effective-duration buckets (% of daytime), high to low.
DURATION_BUCKETS = ((0.9, 1.01), (0.8, 0.9), (0.7, 0.8), (0.6, 0.7), (0.5, 0.6))


def bucket_by_duration(
    results: Iterable[DayResult],
) -> dict[tuple[float, float], list[DayResult]]:
    """Group day results into Figure 20's effective-duration buckets.

    Days below the lowest bucket are dropped, as in the figure.
    """
    buckets: dict[tuple[float, float], list[DayResult]] = {
        bucket: [] for bucket in DURATION_BUCKETS
    }
    for result in results:
        duration = result.effective_duration_fraction
        for low, high in DURATION_BUCKETS:
            if low <= duration < high:
                buckets[(low, high)].append(result)
                break
    return buckets
