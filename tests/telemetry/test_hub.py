"""Unit tests for the telemetry hub, null hub, and process-wide install."""

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    RingBufferSink,
    Telemetry,
    current,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.events import LoadTuningEvent
from repro.telemetry.hub import _NULL_SPAN


class TestTelemetry:
    def test_emit_fans_out_to_all_sinks(self):
        a, b = RingBufferSink(), RingBufferSink()
        hub = Telemetry(sinks=[a])
        hub.add_sink(b)
        hub.emit(LoadTuningEvent(minute=1.0, policy="coarse", raises=1, sheds=0))
        assert len(a) == 1
        assert len(b) == 1

    def test_metrics_shortcuts(self):
        hub = Telemetry()
        hub.count("hits")
        hub.count("hits", 2)
        hub.gauge("level", 3.0)
        hub.observe("iters", 5.0)
        snap = hub.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["level"] == 3.0
        assert snap["histograms"]["iters"]["count"] == 1

    def test_span_feeds_histogram_and_aggregate(self):
        # One timer per name carries the aggregate and the duration
        # buckets; no separate span.* histogram exists.
        hub = Telemetry()
        with hub.span("work"):
            pass
        snap = hub.snapshot()
        assert snap["timers"]["work"]["count"] == 1
        assert sum(snap["timers"]["work"]["buckets"]) == 1
        assert snap["histograms"] == {}

    def test_span_nesting_through_hub(self):
        hub = Telemetry()
        with hub.span("outer"):
            with hub.span("inner"):
                pass
        assert hub.timers["inner"].count == 1
        assert hub.timers.depth == 0

    def test_merge_snapshot_merges_histogram_buckets(self):
        worker = Telemetry()
        for value in (1, 2, 2, 5, 9):
            worker.observe("iters", value)
        parent = Telemetry()
        parent.observe("iters", 3)
        parent.merge_snapshot(worker.snapshot())
        serial = Telemetry()
        for value in (3, 1, 2, 2, 5, 9):
            serial.observe("iters", value)
        assert parent.snapshot()["histograms"] == serial.snapshot()["histograms"]

    def test_enabled_flag(self):
        assert Telemetry().enabled is True

    def test_close_closes_sinks(self, tmp_path):
        from repro.telemetry.sinks import JsonlSink

        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        hub = Telemetry(sinks=[sink])
        hub.close()
        assert sink._file.closed


class TestNullTelemetry:
    def test_disabled(self):
        assert NullTelemetry().enabled is False
        assert NULL_TELEMETRY.enabled is False

    def test_span_returns_shared_singleton(self):
        null = NullTelemetry()
        span = null.span("anything", day=("day", None))
        assert span is _NULL_SPAN
        assert null.span("other") is span  # no per-call allocation
        with span as inner:
            assert inner is span

    def test_noop_surface(self):
        null = NullTelemetry()
        null.emit(LoadTuningEvent(minute=0.0, policy="p", raises=0, sheds=0))
        null.count("x")
        null.gauge("x", 1.0)
        null.observe("x", 1.0)
        null.close()
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timers": {},
        }

    def test_add_sink_raises(self):
        with pytest.raises(RuntimeError, match="NullTelemetry"):
            NullTelemetry().add_sink(RingBufferSink())


class TestInstall:
    def test_default_is_null(self):
        assert current() is NULL_TELEMETRY

    def test_set_and_restore(self):
        hub = Telemetry()
        previous = set_telemetry(hub)
        try:
            assert current() is hub
        finally:
            set_telemetry(previous)
        assert current() is NULL_TELEMETRY

    def test_set_none_restores_null(self):
        set_telemetry(Telemetry())
        assert set_telemetry(None).enabled
        assert current() is NULL_TELEMETRY

    def test_session_scopes_and_restores(self):
        with telemetry_session() as hub:
            assert current() is hub
            assert hub.enabled
        assert current() is NULL_TELEMETRY

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry_session():
                raise RuntimeError("boom")
        assert current() is NULL_TELEMETRY

    def test_session_accepts_explicit_hub(self):
        hub = Telemetry(sinks=[RingBufferSink()])
        with telemetry_session(hub) as installed:
            assert installed is hub
