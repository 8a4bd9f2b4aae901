"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the telemetry hub (the event stream is
the structured half): cheap monotonically increasing counters for things the
paper counts (tracking events, ``brentq`` solves, DVFS transitions, runner
cache hits), gauges for last-seen values, and histograms with fixed bucket
boundaries for distributions (tracking iterations per event, timer
durations).  Percentiles are estimated from the bucket counts by linear
interpolation inside the winning bucket — the standard fixed-bucket
estimator used by Prometheus-style registries, chosen here so recording a
sample is O(#buckets) worst case and allocates nothing.

Snapshots carry the bucket counts, so histograms merge exactly across
processes: a ``jobs=N`` sweep reports the same distribution, percentiles
included, as the same sweep run serially.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS_S",
    "DEFAULT_ITERATION_BUCKETS",
]

#: Bucket upper bounds for timer durations [seconds]: 1 us .. 100 s.
DEFAULT_DURATION_BUCKETS_S: tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3,
    1.0, 3.0, 10.0, 30.0, 100.0,
)

#: Bucket upper bounds for small integer counts (tracking iterations etc.).
DEFAULT_ITERATION_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128,
)


@dataclass
class Counter:
    """A monotonically increasing count.

    Attributes:
        name: Registry key.
        value: Current count.
    """

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-value-wins measurement.

    Attributes:
        name: Registry key.
        value: Most recently set value.
        updates: How many times the gauge was set.
    """

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the current value of the measured quantity."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """A fixed-bucket histogram with interpolated percentile estimates.

    Args:
        name: Registry key.
        buckets: Strictly increasing bucket upper bounds; samples above the
            last bound land in an implicit overflow bucket.
    """

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_DURATION_BUCKETS_S
    ) -> None:
        if len(buckets) < 1:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(buckets, buckets[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {buckets}")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        # One slot per bound plus the overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        idx = bisect.bisect_left(self.bounds, value)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation within the bucket containing the rank; the
        overflow bucket reports the observed maximum.  Exact for the
        recorded extremes: q=0 returns ``min`` and q=100 returns ``max``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        rank = q / 100.0 * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            prev_cumulative = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if idx >= len(self.bounds):  # overflow bucket
                    return self.max
                lo = self.bounds[idx - 1] if idx > 0 else min(self.min, self.bounds[idx])
                hi = self.bounds[idx]
                # Clamp interpolation to the observed range so estimates
                # never lie outside [min, max].
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi > self.max else hi
                fraction = (rank - prev_cumulative) / bucket_count
                return lo + (hi - lo) * fraction
        return self.max

    def snapshot(self) -> dict:
        """Summary statistics plus the bucket counts, as plain data.

        The bounds and per-bucket counts make the snapshot exactly
        mergeable (:meth:`merge`); the rest is for summaries and JSON.
        """
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "bounds": list(self.bounds),
            "buckets": list(self.counts),
        }

    def merge(self, data: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket counts add, so merged percentiles are exactly those of one
        histogram that saw every sample.

        Raises:
            ValueError: The snapshot was taken with other bucket bounds.
        """
        if tuple(data["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        if not data["count"]:
            return
        for idx, bucket_count in enumerate(data["buckets"]):
            self.counts[idx] += bucket_count
        self.count += data["count"]
        self.total += data["total"]
        self.min = min(self.min, data["min"])
        self.max = max(self.max, data["max"])


@dataclass
class MetricsRegistry:
    """Named collection of counters, gauges, and histograms.

    Lookup lazily creates the metric, so instrumentation sites never need a
    registration step; a given name must keep a single metric kind.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_DURATION_BUCKETS_S
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, buckets)
        return metric

    def merge(self, data: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges are last-write-wins, and histograms merge
        their bucket counts (:meth:`Histogram.merge`).
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist in data.get("histograms", {}).items():
            self.histogram(name, tuple(hist["bounds"])).merge(hist)

    def snapshot(self) -> dict[str, dict]:
        """All metrics as one nested plain-data dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every registered metric."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
