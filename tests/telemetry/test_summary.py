"""Unit tests for the post-run telemetry summary rendering."""

from repro.telemetry import NullTelemetry, Telemetry
from repro.telemetry.summary import format_duration, render_summary


class TestFormatDuration:
    def test_unit_selection(self):
        assert format_duration(25e-6) == "25 us"
        assert format_duration(2.5e-3) == "2.5 ms"
        assert format_duration(3.25) == "3.25 s"


class TestRenderSummary:
    def test_disabled_hub_renders_nothing(self):
        assert render_summary(NullTelemetry()) == ""

    def test_counters_and_spans_render(self):
        hub = Telemetry()
        hub.count("sim.tracking_events", 51)
        hub.observe("controller.track_iterations", 7)
        with hub.span("run_day"):
            pass
        text = render_summary(hub)
        assert "telemetry counters" in text
        assert "sim.tracking_events" in text
        assert "51" in text
        assert "controller.track_iterations" in text
        assert "timers" in text
        assert "run_day" in text
        # Durations live in the one timer table, not repeated under
        # distributions.
        assert "span.run_day" not in text

    def test_profiling_hub_leaves_timers_to_profile_report(self):
        hub = Telemetry(profile=True)
        with hub.span("run_day"):
            pass
        assert "run_day" not in render_summary(hub)

    def test_empty_enabled_hub_renders_empty(self):
        assert render_summary(Telemetry()) == ""

