"""Evaluation metrics: PTP, energy utilization, carbon.

Per-day figures (PTP, utilization, tracking error) are properties of the
day results in :mod:`repro.core.results`; this package aggregates them
across days the way the paper's figures do.
"""

from repro.metrics.carbon import (
    GRID_INTENSITY_KG_PER_KWH,
    CarbonReport,
    carbon_report,
)
from repro.metrics.ptp import geometric_mean, normalized_ptp
from repro.metrics.utilization import DURATION_BUCKETS, bucket_by_duration

__all__ = [
    "normalized_ptp",
    "geometric_mean",
    "bucket_by_duration",
    "DURATION_BUCKETS",
    "CarbonReport",
    "carbon_report",
    "GRID_INTENSITY_KG_PER_KWH",
]
