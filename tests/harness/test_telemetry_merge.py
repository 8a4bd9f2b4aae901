"""Cross-process telemetry merge under retry waves: exactly-once metrics.

The contract under test: a task that fails and is recomputed by a retry
wave contributes its telemetry (counters, profile days) to the merged
parent snapshot exactly once — never zero times, never twice.  The
hazard is a task that fails *after* doing real work (it simulated the
day, then raised): a chunk-level hub would have absorbed that partial
work before the failure, and the retry would add it again.  The engine
therefore runs each task under a private hub and folds it into the
chunk snapshot only on success.

Workers fork on Linux, so in-process monkeypatches of
:func:`repro.harness.parallel.compute_task` reach them, and O_APPEND
marker files in ``tmp_path`` give exact cross-process attempt counts.
"""

from __future__ import annotations

import os

from repro.core.config import SolarCoreConfig
from repro.harness import parallel as parallel_mod
from repro.harness.parallel import SweepTask, grid_tasks, run_parallel
from repro.harness.runner import SimulationRunner
from repro.telemetry import Telemetry, telemetry_session

CFG = SolarCoreConfig(step_minutes=10.0)

GOOD_A = SweepTask("mppt", "L1", "AZ", 7)
GOOD_B = SweepTask("mppt", "H1", "AZ", 7)

real_compute = parallel_mod.compute_task


def attempts(log_path) -> int:
    if not os.path.exists(log_path):
        return 0
    with open(log_path) as handle:
        return len(handle.read().splitlines())


def fail_first_attempt_before_work(log_path, target):
    """Fail ``target``'s first attempt before any simulation runs."""

    def wrapper(task, config):
        if task == target:
            with open(log_path, "a") as handle:
                handle.write("attempt\n")
            if attempts(log_path) == 1:
                raise RuntimeError("transient, pre-work")
        return real_compute(task, config)

    return wrapper


def fail_first_attempt_after_work(log_path, target):
    """Fail ``target``'s first attempt *after* the day fully simulated.

    This is the double-counting trap: the failed attempt booked a full
    day of telemetry (sim.days, brentq counters, a profile day) into
    whatever hub was current before the exception surfaced.
    """

    def wrapper(task, config):
        result = real_compute(task, config)
        if task == target:
            with open(log_path, "a") as handle:
                handle.write("attempt\n")
            if attempts(log_path) == 1:
                raise RuntimeError("transient, post-work")
        return result

    return wrapper


def merge_all(snapshots, profiled=False) -> Telemetry:
    hub = Telemetry(profile=profiled)
    for snapshot in snapshots:
        hub.merge_snapshot(snapshot)
    return hub


class TestExactlyOnceCounters:
    def test_pre_work_failure_counts_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            parallel_mod, "compute_task",
            fail_first_attempt_before_work(tmp_path / "log", GOOD_A),
        )
        with telemetry_session():
            results, snapshots = run_parallel(
                [GOOD_A, GOOD_B], CFG, jobs=2,
                collect_telemetry=True, retries=2, retry_base_s=0.0,
            )
        assert set(results) == {GOOD_A, GOOD_B}
        assert attempts(tmp_path / "log") == 2
        merged = merge_all(snapshots)
        assert merged.snapshot()["counters"]["sim.days"] == 2

    def test_post_work_failure_counts_once(self, monkeypatch, tmp_path):
        """The sharper variant: the failed attempt did a full day of work
        before raising, so a naive chunk-wide hub would report 3 days."""
        monkeypatch.setattr(
            parallel_mod, "compute_task",
            fail_first_attempt_after_work(tmp_path / "log", GOOD_A),
        )
        with telemetry_session():
            results, snapshots = run_parallel(
                [GOOD_A, GOOD_B], CFG, jobs=2,
                collect_telemetry=True, retries=2, retry_base_s=0.0,
            )
        assert set(results) == {GOOD_A, GOOD_B}
        assert attempts(tmp_path / "log") == 2
        merged = merge_all(snapshots)
        counters = merged.snapshot()["counters"]
        assert counters["sim.days"] == 2
        # Timers fold the same way: one day timer per retired task.
        timers = merged.snapshot()["timers"]
        assert timers["run_day"]["count"] == 2

    def test_no_retries_no_failures_counts_every_task(self, monkeypatch, tmp_path):
        with telemetry_session():
            _, snapshots = run_parallel(
                [GOOD_A, GOOD_B], CFG, jobs=2, collect_telemetry=True
            )
        merged = merge_all(snapshots)
        assert merged.snapshot()["counters"]["sim.days"] == 2


class TestExactlyOnceProfiles:
    def test_profile_days_exact_under_post_work_retry(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            parallel_mod, "compute_task",
            fail_first_attempt_after_work(tmp_path / "log", GOOD_A),
        )
        with telemetry_session():
            results, snapshots = run_parallel(
                [GOOD_A, GOOD_B], CFG, jobs=2,
                collect_telemetry=True, collect_profile=True,
                retries=2, retry_base_s=0.0,
            )
        assert set(results) == {GOOD_A, GOOD_B}
        assert attempts(tmp_path / "log") == 2
        merged = merge_all(snapshots, profiled=True)
        table = merged.timers
        # Exactly one day profile per retired task, despite the extra
        # (discarded) attempt, and the timers match the day profiles.
        assert len(table.days) == 2
        assert table["run_day"].count == 2
        assert table["controller.track"].count == sum(
            day.phases["controller.track"][0] for day in table.days
        )

    def test_collect_profile_without_telemetry_flag(self):
        """``collect_profile`` alone is enough to ship profiles home."""
        with telemetry_session():
            _, snapshots = run_parallel(
                [GOOD_A], CFG, jobs=1, collect_profile=True
            )
        merged = merge_all(snapshots, profiled=True)
        assert len(merged.timers.days) == 1


class TestSerialParallelParity:
    """A ``jobs=4`` sweep reports the same telemetry as the serial one:
    worker snapshots carry histogram and timer bucket counts, and the
    parent folds them exactly."""

    def test_serial_and_jobs4_summaries_match(self):
        tasks = grid_tasks(("H1", "L1"), ("AZ", "TN"), (1, 7))
        snaps = {}
        for jobs in (1, 4):
            with telemetry_session() as hub:
                SimulationRunner(CFG, jobs=jobs).prefetch(tasks)
                snaps[jobs] = hub.snapshot()
        serial, parallel = snaps[1], snaps[4]
        assert serial["counters"] == parallel["counters"]
        hist = {
            jobs: snap["histograms"]["controller.track_iterations"]
            for jobs, snap in snaps.items()
        }
        assert hist[1]["count"] > 0
        for key in ("count", "buckets", "p50", "p95", "min", "max"):
            assert hist[1][key] == hist[4][key], key
        assert {name: t["count"] for name, t in serial["timers"].items()} == {
            name: t["count"] for name, t in parallel["timers"].items()
        }
        assert parallel["timers"]["run_day"]["count"] == len(tasks)
