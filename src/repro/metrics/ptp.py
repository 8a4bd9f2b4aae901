"""Performance-time product (PTP) aggregation (paper Section 4.3).

PTP is the paper's figure of merit: average throughput times operation
duration, measured as total instructions committed per day.  The helpers
here aggregate and normalize PTP across days and policies the way the
paper's Figure 21 does (normalized to the Battery-L baseline).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.simulation import BatteryDayResult, DayResult

__all__ = ["normalized_ptp", "geometric_mean"]


def normalized_ptp(
    results: Mapping[str, DayResult | BatteryDayResult],
    baseline: str,
) -> dict[str, float]:
    """Normalize a set of same-day results to one of them.

    Args:
        results: Policy name -> day result (all for the same workload/day).
        baseline: Key of the baseline policy (paper: ``"Battery-L"``).

    Returns:
        Policy name -> PTP relative to the baseline.
    """
    if baseline not in results:
        raise KeyError(
            f"baseline {baseline!r} not among results: {sorted(results)}"
        )
    base = results[baseline].ptp
    if base <= 0.0:
        raise ValueError(f"baseline {baseline!r} has non-positive PTP {base}")
    return {name: r.ptp / base for name, r in results.items()}


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (paper's Table 7 aggregation)."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("geometric mean of an empty sequence")
    if np.any(arr <= 0.0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
