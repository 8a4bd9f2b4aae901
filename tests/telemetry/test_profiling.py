"""Unit and integration tests for the hot-path profile (phases and days)."""

from __future__ import annotations

import pytest

from repro.core.config import SolarCoreConfig
from repro.core.simulation import run_day
from repro.environment.locations import location_by_code
from repro.harness.parallel import grid_tasks
from repro.harness.runner import SimulationRunner
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TimerTable,
    render_profile,
    telemetry_session,
)
from repro.telemetry.hub import _NULL_SPAN

CFG = SolarCoreConfig(step_minutes=10.0)


class FakeClock:
    """A deterministic perf_counter: advances by explicit ticks."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def profiled_hub(clock=None) -> Telemetry:
    hub = Telemetry(profile=True)
    if clock is not None:
        hub.timers.clock = clock
    return hub


class TestPhaseProfiler:
    def test_add_accumulates(self):
        table = TimerTable()
        table.add("step.trace", 0.25)
        table.add("step.trace", 0.75)
        stat = table["step.trace"]
        assert stat.count == 2
        assert stat.total == 1.0
        assert stat.mean == 0.5

    def test_count_accumulates(self):
        # Work counters live in the hub's one metrics registry.
        hub = profiled_hub()
        hub.count("power.brentq_calls")
        hub.count("power.brentq_iterations", 9.0)
        hub.count("power.brentq_iterations", 11.0)
        counters = hub.snapshot()["counters"]
        assert counters["power.brentq_calls"] == 1.0
        assert counters["power.brentq_iterations"] == 20.0

    def test_day_context_records_wall_and_phases(self):
        clock = FakeClock()
        table = TimerTable(clock=clock)
        with table.region("run_day", day=("day-one", ("AZ", 7))):
            clock.tick(0.4)
            table.add("step.policy", 0.3)
            table.add("power.operating_point", 0.2)  # nested, not coverage
            clock.tick(0.6)
        (day,) = table.days
        assert day.name == "run_day"
        assert day.label == "day-one"
        assert day.cell == ("AZ", 7)
        assert day.wall_s == pytest.approx(1.0)
        assert day.phases["step.policy"] == (1, 0.3)
        # The day's own timer is the wall, not one of its phases.
        assert "run_day" not in day.phases
        assert table["run_day"].total == pytest.approx(1.0)
        # Coverage counts only the exclusive step.*/day.* partition.
        assert day.attributed_s == pytest.approx(0.3)
        assert day.coverage == pytest.approx(0.3)
        assert table.coverage == pytest.approx(0.3)

    def test_phases_outside_day_still_accumulate_globally(self):
        table = TimerTable()
        table.add("step.policy", 1.0)
        assert table["step.policy"].count == 1
        assert not table.days

    def test_nested_day_contexts_do_not_corrupt(self):
        clock = FakeClock()
        table = TimerTable(clock=clock)
        with table.region("outer", day=("outer", None)):
            # Ignored as a day: days never nest in practice.
            with table.region("inner", day=("inner", None)):
                clock.tick(1.0)
                table.add("step.trace", 1.0)
        (day,) = table.days
        assert day.label == "outer"
        assert day.phases["step.trace"] == (1, 1.0)
        assert day.phases["inner"] == (1, 1.0)

    def test_max_days_truncation(self):
        table = TimerTable(max_days=2)
        for n in range(5):
            with table.region("run_day", day=(f"day-{n}", None)):
                pass
        assert len(table.days) == 2
        assert table.truncated_days == 3
        assert table["run_day"].count == 5  # timers still see every day

    def test_by_cell_groups(self):
        table = TimerTable()
        for label, cell in (("a", ("AZ", 7)), ("b", ("AZ", 7)),
                            ("c", ("TN", 1)), ("d", None)):
            with table.region("run_day", day=(label, cell)):
                pass
        groups = table.by_cell()
        assert len(groups[("AZ", 7)]) == 2
        assert len(groups[("TN", 1)]) == 1
        assert len(groups[None]) == 1

    def test_snapshot_merge_round_trip(self):
        clock = FakeClock()
        table = TimerTable(clock=clock)
        with table.region("run_day", day=("one", ("AZ", 7))):
            clock.tick(2.0)
            table.add("step.policy", 1.5)
        table.add("step.trace", 0.5)

        merged = TimerTable()
        merged.merge(table.snapshot())
        merged.merge(table.snapshot())  # two workers' worth
        assert merged["step.policy"].count == 2
        assert merged["step.policy"].total == pytest.approx(3.0)
        assert merged["step.trace"].total == pytest.approx(1.0)
        assert merged["run_day"].count == 2
        assert len(merged.days) == 2
        assert all(day.cell == ("AZ", 7) for day in merged.days)
        assert merged.days[0].wall_s == pytest.approx(2.0)
        assert merged.days[0].phases["step.policy"] == (1, 1.5)

    def test_merge_respects_max_days(self):
        table = TimerTable()
        with table.region("run_day", day=("one", None)):
            pass
        merged = TimerTable(max_days=1)
        merged.merge(table.snapshot())
        merged.merge(table.snapshot())
        assert len(merged.days) == 1
        assert merged.truncated_days == 1

    def test_reset(self):
        table = TimerTable()
        table.add("step.trace", 1.0)
        with table.region("run_day", day=("one", None)):
            pass
        table.reset()
        assert not table and not table.days
        assert table.truncated_days == 0


class TestNullProfiler:
    def test_disabled_and_inert(self):
        null = NullTelemetry()
        assert null.profiling is False
        assert NULL_TELEMETRY.profiling is False
        null.count("x")
        null.merge_snapshot({"timers": {"step.trace": {"count": 1}}})
        assert null.snapshot()["timers"] == {}
        assert render_profile(null) == ""

    def test_day_context_is_shared_noop(self):
        null = NullTelemetry()
        ctx = null.span("run_day", day=("anything", None))
        assert ctx is _NULL_SPAN
        assert null.span("other") is ctx  # no per-call allocation
        with ctx as inner:
            assert inner is ctx


class TestHubIntegration:
    def test_default_hub_has_null_profiler(self):
        assert Telemetry().profiling is False
        assert NullTelemetry().profiling is False
        assert Telemetry(profile=True).profiling is True

    def test_snapshot_gains_profile_only_when_armed(self):
        plain = Telemetry()
        with plain.span("run_day", day=("one", None)):
            pass
        assert plain.snapshot()["days"] == []
        assert plain.snapshot()["timers"]["run_day"]["count"] == 1
        armed = profiled_hub()
        with armed.span("run_day", day=("one", None)):
            armed.timers.add("step.trace", 1.0)
        snap = armed.snapshot()
        assert snap["timers"]["step.trace"]["count"] == 1
        (day,) = snap["days"]
        assert day["phases"]["step.trace"] == [1, 1.0]

    def test_merge_snapshot_folds_profile(self):
        src = profiled_hub()
        src.timers.add("step.policy", 2.0)
        dst = profiled_hub()
        dst.merge_snapshot(src.snapshot())
        assert dst.timers["step.policy"].total == pytest.approx(2.0)

    def test_merge_snapshot_without_profiler_ignores_profile(self):
        src = profiled_hub()
        src.timers.add("step.policy", 2.0)
        dst = Telemetry()
        dst.merge_snapshot(src.snapshot())  # must not raise
        assert dst.profiling is False
        assert render_profile(dst) == ""


class TestDayIntegration:
    def test_profiled_day_covers_95_percent_of_wall(self):
        hub = profiled_hub()
        with telemetry_session(hub):
            run_day("HM2", location_by_code("AZ"), 7, config=CFG)
        table = hub.timers
        (day,) = table.days
        assert day.cell == ("PFCI", 7)
        assert day.name == "run_day"
        assert "run_day" in day.label
        # One measurement of the day: its wall is the run_day timer.
        assert table["run_day"].count == 1
        assert table["run_day"].total == day.wall_s
        # The acceptance bar: the exclusive step/day phases account for
        # at least 95% of the measured day wall-time.
        assert table.coverage >= 0.95
        # Solver work is counted: every brentq call books its iterations.
        counters = hub.snapshot()["counters"]
        assert counters["power.brentq_calls"] > 0
        assert counters["power.brentq_iterations"] > counters["power.brentq_calls"]
        # The partition phases all ran once per step.
        steps = table["step.trace"].count
        assert steps > 0
        for name in ("step.mpp_solve", "step.supply", "step.policy",
                     "step.record"):
            assert table[name].count == steps

    def test_profiling_disabled_leaves_no_trace(self):
        hub = Telemetry()  # telemetry on, profiling off
        with telemetry_session(hub):
            run_day("HM2", location_by_code("AZ"), 7, config=CFG)
        snap = hub.snapshot()
        assert snap["days"] == []
        assert not any(name.startswith("step.") for name in snap["timers"])
        assert "power.operating_point" not in snap["timers"]
        assert snap["timers"]["run_day"]["count"] == 1

    def test_profile_merges_across_four_workers(self):
        tasks = grid_tasks(("H1", "L1"), ("AZ", "TN"), (1, 7))
        hub = profiled_hub()
        with telemetry_session(hub):
            runner = SimulationRunner(CFG, jobs=4)
            results = runner.prefetch(tasks)
        assert len(results) == len(tasks)
        table = hub.timers
        # One day profile per task, correctly cell-labelled, whichever
        # worker ran it.
        assert len(table.days) == len(tasks)
        cells = table.by_cell()
        assert set(cells) == {("PFCI", 1), ("PFCI", 7), ("ORNL", 1),
                              ("ORNL", 7)}
        assert all(len(days) == 2 for days in cells.values())
        # Merged timer counts line up with the summed per-day counts.
        steps = sum(day.phases["step.mpp_solve"][0] for day in table.days)
        assert table["step.mpp_solve"].count == steps
        assert table["run_day"].count == len(tasks)
        assert table.coverage >= 0.95
        assert hub.snapshot()["counters"]["power.brentq_calls"] > 0


class TestRenderProfile:
    def test_disabled_or_empty_renders_nothing(self):
        assert render_profile(NULL_TELEMETRY) == ""
        assert render_profile(Telemetry(profile=True)) == ""

    def test_report_sections(self):
        clock = FakeClock()
        hub = profiled_hub(clock)
        with hub.span("run_day", day=("one", ("AZ", 7))):
            clock.tick(1.0)
            hub.timers.add("step.policy", 0.9)
            hub.timers.add("power.operating_point", 0.4)
            hub.count("power.brentq_calls", 10.0)
            hub.count("power.brentq_iterations", 95.0)
        report = render_profile(hub)
        assert "step.policy" in report
        assert "nested" in report  # power.operating_point is not partition
        assert "attributed 90.0%" in report
        assert "9.5 / call" in report
        assert "per-cell wall-time" in report
        assert "AZ 7" in report

    def test_top_n_limits_rows(self):
        hub = profiled_hub()
        for n in range(10):
            hub.timers.add(f"step.p{n}", float(n + 1))
        report = render_profile(hub, top=3)
        assert "top 3 of 10" in report
        assert "step.p9" in report  # biggest total listed
        assert "step.p0" not in report
