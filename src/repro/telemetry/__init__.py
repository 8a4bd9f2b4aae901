"""Observability for the SolarCore reproduction.

Three coordinated facilities behind one hub (:class:`Telemetry`):

* a **metrics registry** — counters, gauges, and fixed-bucket histograms
  (tracking events, ``brentq`` solves, DVFS transitions, cache hit rates);
* a **structured event stream** — typed records (tracking events, supply
  switches, load tuning, battery phases) fanned out to pluggable sinks
  (ring buffer, JSONL file, stdlib logging);
* **one timer table** — nested wall-clock regions of the hot paths
  (``with telemetry.span("run_day"):``) and, with ``profile=True``, the
  engine's per-step phases and per-day profiles, one timer per name.

Disabled by default: the process-wide hub starts as :data:`NULL_TELEMETRY`
and instrumented code guards every site with ``if tel.enabled:``, so the
off state costs one attribute check.  Enable process-wide with
:func:`set_telemetry` or scoped with :func:`telemetry_session`::

    from repro import telemetry

    with telemetry.telemetry_session() as tel:
        tel.add_sink(telemetry.RingBufferSink())
        day = run_day("HM2", PHOENIX_AZ, 7)
        print(telemetry.render_summary(tel))
"""

from repro.telemetry.events import (
    BatteryEvent,
    DegradedModeEvent,
    DVFSAllocationEvent,
    EVENT_TYPES,
    EnergyBalanceEvent,
    FaultInjectedEvent,
    LoadTuningEvent,
    RecoveryEvent,
    RackDivisionEvent,
    SupplySwitchEvent,
    TelemetryEvent,
    TrackingEvent,
    event_from_dict,
    event_to_dict,
)
from repro.telemetry.hub import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    current,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.logconfig import configure_logging, parse_level
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.async_sink import AsyncBridgeSink
from repro.telemetry.sinks import (
    EventSink,
    JsonlSink,
    LoggingSink,
    RingBufferSink,
    read_jsonl_events,
)
from repro.telemetry.summary import format_duration, render_profile, render_summary
from repro.telemetry.timers import DayProfile, Timer, TimerTable

__all__ = [
    # hub
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current",
    "set_telemetry",
    "telemetry_session",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # events
    "TelemetryEvent",
    "TrackingEvent",
    "SupplySwitchEvent",
    "LoadTuningEvent",
    "DVFSAllocationEvent",
    "BatteryEvent",
    "RackDivisionEvent",
    "EnergyBalanceEvent",
    "FaultInjectedEvent",
    "DegradedModeEvent",
    "RecoveryEvent",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
    # sinks
    "EventSink",
    "AsyncBridgeSink",
    "RingBufferSink",
    "JsonlSink",
    "LoggingSink",
    "read_jsonl_events",
    # timers
    "Timer",
    "TimerTable",
    "DayProfile",
    # logging / summary
    "configure_logging",
    "parse_level",
    "render_summary",
    "render_profile",
    "format_duration",
]
