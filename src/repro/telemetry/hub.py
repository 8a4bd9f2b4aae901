"""The telemetry hub: one object tying registry, sinks, and timers together.

Process-wide but injectable: instrumented code fetches the current hub via
:func:`current` (or accepts one as a parameter) and guards every
instrumentation site with the hub's ``enabled`` attribute, so the
disabled-by-default :class:`NullTelemetry` costs exactly one attribute
check on the hot paths.  :func:`set_telemetry` swaps the process-wide hub
(the CLI does this when ``--trace``/``--telemetry`` is given);
:func:`telemetry_session` scopes a hub to a ``with`` block for tests and
library embedding.
"""

from __future__ import annotations

import contextlib

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.metrics import DEFAULT_ITERATION_BUCKETS, MetricsRegistry
from repro.telemetry.sinks import EventSink
from repro.telemetry.timers import Region, TimerTable

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current",
    "set_telemetry",
    "telemetry_session",
]


class Telemetry:
    """An enabled telemetry hub.

    Args:
        sinks: Event sinks receiving every emitted record.
        registry: Metrics registry (fresh one by default).
        profile: Arm the hot-path profile: the engine books its per-step
            ``step.*``/``day.*`` phases and every simulated day records a
            :class:`~repro.telemetry.timers.DayProfile`.  Off by default,
            so enabling telemetry alone never pays the per-phase clock
            reads.
    """

    #: Hot paths check this single attribute before doing any work.
    enabled = True

    def __init__(
        self,
        sinks: list[EventSink] | None = None,
        registry: MetricsRegistry | None = None,
        profile: bool = False,
    ) -> None:
        self.sinks: list[EventSink] = list(sinks or [])
        self.registry = registry or MetricsRegistry()
        #: Every timed region and profile phase, one timer per name.
        self.timers = TimerTable()
        #: Profiled hot paths check this attribute before each phase.
        self.profiling = profile

    # -- event stream ---------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        """Fan one structured event out to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def add_sink(self, sink: EventSink) -> None:
        """Attach another sink."""
        self.sinks.append(sink)

    # -- metrics --------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name``."""
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.registry.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_ITERATION_BUCKETS,
    ) -> None:
        """Record ``value`` into the histogram ``name``."""
        self.registry.histogram(name, buckets).observe(value)

    # -- timers -------------------------------------------------------
    def span(self, name: str, day: tuple | None = None) -> Region:
        """A context manager timing the enclosed region under ``name``.

        Args:
            day: ``(label, cell)`` marks the region as one simulated day;
                on a profiling hub it records the day's profile.
        """
        return self.timers.region(name, day if self.profiling else None)

    def laps(self):
        """A profile-phase stopwatch (:meth:`TimerTable.laps`); a no-op
        unless the hub is profiling."""
        return self.timers.laps() if self.profiling else _no_lap

    # -- cross-process aggregation --------------------------------------
    def merge_snapshot(self, data: dict) -> None:
        """Fold another hub's :meth:`snapshot` into this hub.

        The parallel sweep engine runs each worker under a private hub
        and ships the snapshot back; the parent merges so its post-run
        summary covers worker-side work.  Counters add, gauges are
        last-write-wins, and histograms and timers add their bucket
        counts, so merged distributions equal single-process ones.
        """
        self.registry.merge(data)
        self.timers.merge(data)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()

    def snapshot(self) -> dict:
        """Metrics, timers and day profiles as one plain-data dict."""
        data = self.registry.snapshot()
        data.update(self.timers.snapshot())
        return data


class _NullSpan:
    """Shared no-op context manager; one instance serves every call."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _no_lap(phase: str) -> None:
    """The stopwatch of a hub that is not profiling."""


class NullTelemetry:
    """The disabled hub: every operation is a no-op.

    ``enabled`` is False, so correctly guarded instrumentation never calls
    these methods at all; they exist so unguarded calls stay harmless, and
    :meth:`span` returns a shared singleton so even an unguarded
    ``with telemetry.span(...)`` allocates nothing.
    """

    enabled = False

    #: Profiling is off along with everything else on the null hub.
    profiling = False

    def emit(self, event: TelemetryEvent) -> None:
        return None

    def add_sink(self, sink: EventSink) -> None:
        raise RuntimeError(
            "cannot attach sinks to NullTelemetry; install a Telemetry hub "
            "with repro.telemetry.set_telemetry(Telemetry(...))"
        )

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float, buckets=()) -> None:
        return None

    def span(self, name: str, day: tuple | None = None) -> _NullSpan:
        return _NULL_SPAN

    def laps(self):
        return _no_lap

    def merge_snapshot(self, data: dict) -> None:
        return None

    def close(self) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}, "timers": {}}


#: The process-wide disabled hub (shared; never mutated).
NULL_TELEMETRY = NullTelemetry()

#: The process-wide current hub.  Module attribute, not a module-level
#: ``from``-import target: hot paths read ``hub._current`` through
#: :func:`current` or the module attribute so swaps take effect everywhere.
_current: Telemetry | NullTelemetry = NULL_TELEMETRY


def current() -> Telemetry | NullTelemetry:
    """The process-wide telemetry hub (the null hub unless installed)."""
    return _current


def set_telemetry(telemetry: Telemetry | NullTelemetry | None) -> Telemetry | NullTelemetry:
    """Install ``telemetry`` as the process-wide hub.

    Args:
        telemetry: The new hub, or None to restore the null hub.

    Returns:
        The previously installed hub (so callers can restore it).
    """
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextlib.contextmanager
def telemetry_session(telemetry: Telemetry | None = None, **kwargs):
    """Scope a hub to a ``with`` block, restoring the previous one after.

    Args:
        telemetry: Hub to install; a fresh :class:`Telemetry` built from
            ``kwargs`` when omitted.

    Yields:
        The installed hub.
    """
    hub = telemetry or Telemetry(**kwargs)
    previous = set_telemetry(hub)
    try:
        yield hub
    finally:
        set_telemetry(previous)
        hub.close()
