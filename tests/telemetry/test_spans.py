"""Unit tests for timed regions: nesting, self time, aggregates (fake clock)."""

import sys
import threading

import pytest

from repro.telemetry.timers import TimerTable


class FakeClock:
    """Deterministic monotonic clock advanced by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


class TestSpanTiming:
    def test_duration_from_clock(self, clock):
        tracker = TimerTable(clock=clock)
        with tracker.region("work"):
            clock.advance(2.5)
        agg = tracker["work"]
        assert agg.count == 1
        assert agg.total == pytest.approx(2.5)
        assert agg.min == pytest.approx(2.5)
        assert agg.max == pytest.approx(2.5)

    def test_aggregate_accumulates(self, clock):
        tracker = TimerTable(clock=clock)
        for seconds in (1.0, 3.0, 2.0):
            with tracker.region("work"):
                clock.advance(seconds)
        agg = tracker["work"]
        assert agg.count == 3
        assert agg.total == pytest.approx(6.0)
        assert agg.mean == pytest.approx(2.0)
        assert agg.min == pytest.approx(1.0)
        assert agg.max == pytest.approx(3.0)
        # The fixed duration buckets see every occurrence.
        assert sum(agg.counts) == 3

    def test_real_clock_is_monotonic(self):
        tracker = TimerTable()
        with tracker.region("outer"):
            pass
        assert tracker["outer"].total >= 0.0


class TestNesting:
    def test_depth_and_current(self, clock):
        tracker = TimerTable(clock=clock)
        assert tracker.depth == 0
        assert tracker.current is None
        with tracker.region("outer") as outer:
            assert tracker.depth == 1
            assert tracker.current is outer
            with tracker.region("inner") as inner:
                assert tracker.depth == 2
                assert tracker.current is inner
            assert tracker.depth == 1
        assert tracker.depth == 0

    def test_self_time_excludes_children(self, clock):
        tracker = TimerTable(clock=clock)
        with tracker.region("outer"):
            clock.advance(1.0)
            with tracker.region("inner"):
                clock.advance(4.0)
            clock.advance(2.0)
        outer = tracker["outer"]
        inner = tracker["inner"]
        assert outer.total == pytest.approx(7.0)
        assert outer.self_s == pytest.approx(3.0)
        assert inner.total == pytest.approx(4.0)
        assert inner.self_s == pytest.approx(4.0)

    def test_phases_are_leaves(self, clock):
        # A phase booked with add() is timed by its caller; it never
        # reduces the self time of the region it was booked inside.
        tracker = TimerTable(clock=clock)
        with tracker.region("outer"):
            clock.advance(2.0)
            tracker.add("step.policy", 1.5)
        assert tracker["outer"].self_s == pytest.approx(2.0)
        assert tracker["step.policy"].self_s == pytest.approx(1.5)

    def test_nesting_is_per_thread(self):
        # Regression: the service runs day simulations on several compute
        # threads against one shared table.  A shared stack interleaved
        # their spans and raised "span stack corrupted"; each thread must
        # see only its own nesting while aggregates stay shared.
        tracker = TimerTable()
        barrier = threading.Barrier(4)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10)
                for _ in range(200):
                    with tracker.region("run_day"):
                        with tracker.region("step"):
                            pass
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        # A short switch interval forces interleaving inside the shared
        # timers, so a lost update would show in the counts below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert tracker["run_day"].count == 4 * 200
        assert tracker["step"].count == 4 * 200
        assert tracker.depth == 0

    def test_mismatched_exit_raises(self, clock):
        tracker = TimerTable(clock=clock)
        outer = tracker.region("outer")
        inner = tracker.region("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="span stack corrupted"):
            outer.__exit__(None, None, None)


class TestSnapshot:
    def test_sorted_by_total_descending(self, clock):
        tracker = TimerTable(clock=clock)
        with tracker.region("fast"):
            clock.advance(1.0)
        with tracker.region("slow"):
            clock.advance(9.0)
        snap = tracker.snapshot()["timers"]
        assert list(snap) == ["slow", "fast"]
        assert snap["slow"]["count"] == 1
        assert snap["slow"]["total"] == pytest.approx(9.0)
        assert sum(snap["slow"]["buckets"]) == 1

    def test_merge_adds_buckets_and_self_time(self, clock):
        worker = TimerTable(clock=clock)
        for seconds in (0.002, 0.004, 0.5):
            with worker.region("work"):
                clock.advance(seconds)
        parent = TimerTable()
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())  # two workers' worth
        merged = parent["work"]
        assert merged.count == 6
        assert merged.total == pytest.approx(2 * 0.506)
        assert merged.self_s == pytest.approx(2 * 0.506)
        assert merged.max == pytest.approx(0.5)
        assert merged.counts == [2 * n for n in worker["work"].counts]
        assert merged.percentile(50.0) == worker["work"].percentile(50.0)

    def test_reset(self, clock):
        tracker = TimerTable(clock=clock)
        with tracker.region("work", day=("day", None)):
            clock.advance(1.0)
        tracker.reset()
        assert dict(tracker) == {}
        assert tracker.days == []
