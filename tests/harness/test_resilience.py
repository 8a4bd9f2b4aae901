"""Resilient sweep execution: retries, salvage, timeouts, cache-dir resume.

The worker pool uses the ``fork`` start method on Linux, so workers
inherit an in-process monkeypatch of
:func:`repro.harness.parallel.compute_task`.  The tests exploit that to
count cross-process invocations (one appended line per call in a shared
file) and to inject deterministic failures, crashes, and hangs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import SolarCoreConfig
from repro.harness import parallel as parallel_mod
from repro.harness.parallel import (
    DiskResultCache,
    SweepError,
    SweepFailureReport,
    SweepTask,
    TaskFailure,
    run_parallel,
    run_serial,
)
from repro.harness.runner import SimulationRunner
from repro.telemetry import telemetry_session

CFG = SolarCoreConfig(step_minutes=10.0)

GOOD_A = SweepTask("mppt", "L1", "AZ", 7)
GOOD_B = SweepTask("mppt", "H1", "AZ", 7)
#: "NOPE" is not a workload mix; computing this task raises in the worker.
BAD = SweepTask("mppt", "NOPE", "TN", 1)

real_compute = parallel_mod.compute_task


def counting_compute(log_path, inner=real_compute):
    """A compute_task that appends one line per invocation to ``log_path``.

    O_APPEND line writes are atomic across forked workers, so the line
    count is the exact cross-process invocation count.
    """

    def wrapper(task, config):
        with open(log_path, "a") as handle:
            handle.write(task.describe() + "\n")
        return inner(task, config)

    return wrapper


def invocations(log_path) -> list[str]:
    if not os.path.exists(log_path):
        return []
    with open(log_path) as handle:
        return handle.read().splitlines()


class TestSalvage:
    def test_parallel_salvage_returns_partial_results(self):
        results, _, report = run_parallel(
            [GOOD_A, BAD], CFG, jobs=2, salvage=True
        )
        assert GOOD_A in results and BAD not in results
        assert report
        (failure,) = report.failures
        assert failure.task == BAD
        assert failure.attempts == 1
        assert not failure.timed_out
        assert report.completed == 1 and report.attempted == 2
        assert "mix=NOPE" in report.summary()

    def test_serial_salvage_matches(self):
        results, report = run_serial([GOOD_A, BAD], CFG, salvage=True)
        assert GOOD_A in results and BAD not in results
        assert [f.task for f in report.failures] == [BAD]

    def test_salvage_counts_failures_in_telemetry(self):
        with telemetry_session() as tel:
            run_serial([BAD], CFG, salvage=True)
            snap = tel.snapshot()
        assert snap["counters"]["sweep.salvaged_failures"] == 1

    def test_worker_crash_is_contained(self, monkeypatch):
        """A worker dying mid-task (BrokenProcessPool) fails only its
        tasks; healthy cells complete via the fresh-pool retry wave."""

        def crashing(task, config):
            if task.mix_name == "NOPE":
                os._exit(13)
            return real_compute(task, config)

        monkeypatch.setattr(parallel_mod, "compute_task", crashing)
        # One worker: the healthy chunk finishes before the crasher kills
        # the pool, so only the crashing cell needs the retry wave.
        results, _, report = run_parallel(
            [GOOD_A, BAD], CFG, jobs=1, salvage=True,
            retries=1, retry_base_s=0.0,
        )
        assert GOOD_A in results
        (failure,) = report.failures
        assert failure.task == BAD
        assert failure.attempts == 2
        assert "BrokenProcessPool" in failure.error

    def test_without_salvage_the_sweep_raises(self):
        with pytest.raises(SweepError, match=r"serially.*mix=NOPE"):
            run_serial([GOOD_A, BAD], CFG)

    def test_empty_report_is_falsy(self):
        _, report = run_serial([GOOD_A], CFG, salvage=True)
        assert not report
        assert "all 1 task(s) succeeded" in report.summary()

    def test_failure_report_is_plain_data(self):
        report = SweepFailureReport(
            failures=[TaskFailure(task=BAD, error="KeyError: 'NOPE'", attempts=3)],
            completed=5,
            attempted=6,
        )
        assert "failed after 3 attempt(s)" in report.summary()


class TestRetries:
    def test_serial_transient_failure_recovers(self, monkeypatch):
        calls = {"n": 0}

        def flaky(task, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real_compute(task, config)

        monkeypatch.setattr(parallel_mod, "compute_task", flaky)
        with telemetry_session() as tel:
            results = run_serial([GOOD_A], CFG, retries=1, retry_base_s=0.0)
            snap = tel.snapshot()
        assert GOOD_A in results
        assert calls["n"] == 2
        assert snap["counters"]["sweep.retries"] == 1

    def test_parallel_transient_failure_recovers(self, monkeypatch, tmp_path):
        log_path = tmp_path / "calls.log"

        def flaky(task, config):
            with open(log_path, "a") as handle:
                handle.write(task.describe() + "\n")
            if len(invocations(log_path)) == 1:
                raise RuntimeError("transient")
            return real_compute(task, config)

        monkeypatch.setattr(parallel_mod, "compute_task", flaky)
        results, _ = run_parallel(
            [GOOD_A], CFG, jobs=2, retries=2, retry_base_s=0.0
        )
        assert GOOD_A in results
        assert len(invocations(log_path)) == 2

    def test_retries_exhausted_reports_attempt_count(self):
        _, report = run_serial(
            [BAD], CFG, retries=2, retry_base_s=0.0, salvage=True
        )
        assert report.failures[0].attempts == 3

    def test_negative_retries_rejected_by_runner(self):
        with pytest.raises(ValueError, match="retries"):
            SimulationRunner(CFG, retries=-1)


class TestTaskTimeout:
    def test_hung_task_times_out_and_is_reported(self, monkeypatch):
        def hang(task, config):
            time.sleep(30.0)
            return real_compute(task, config)

        monkeypatch.setattr(parallel_mod, "compute_task", hang)
        start = time.monotonic()
        with telemetry_session() as tel:
            results, _, report = run_parallel(
                [GOOD_A], CFG, jobs=1, salvage=True, task_timeout=0.2
            )
            snap = tel.snapshot()
        assert time.monotonic() - start < 15.0, "the sweep must not hang"
        assert results == {}
        (failure,) = report.failures
        assert failure.timed_out
        assert "timed out" in failure.error
        assert snap["counters"]["sweep.timeouts"] == 1

    def test_fast_tasks_unaffected_by_generous_timeout(self):
        results, _ = run_parallel([GOOD_A], CFG, jobs=1, task_timeout=120.0)
        assert GOOD_A in results


class TestCheckpointResume:
    """The resume contract: rerunning a sweep with the same ``cache_dir``
    restores every completed cell from the disk cache and recomputes only
    the remainder — proven by counting cross-process compute_task
    invocations."""

    def test_resume_recomputes_only_missing_cells(self, monkeypatch, tmp_path):
        log_path = tmp_path / "calls.log"
        monkeypatch.setattr(
            parallel_mod, "compute_task", counting_compute(log_path)
        )
        cache_dir = tmp_path / "cache"

        first = SimulationRunner(CFG, cache_dir=cache_dir, salvage=True)
        results = first.prefetch([GOOD_A, GOOD_B, BAD])
        assert set(results) == {GOOD_A, GOOD_B}
        assert len(invocations(log_path)) == 3  # two successes + one failure

        # "Crash"; a new process reruns with the same cache dir.
        resumed = SimulationRunner(CFG, cache_dir=cache_dir, salvage=True)
        results = resumed.prefetch([GOOD_A, GOOD_B, BAD])
        assert set(results) == {GOOD_A, GOOD_B}
        report = resumed.last_failure_report
        assert [f.task for f in report.failures] == [BAD]
        # Only the failed cell was recomputed.
        assert len(invocations(log_path)) == 4
        assert invocations(log_path)[-1] == BAD.describe()

    def test_parallel_resume_skips_completed_cells(self, monkeypatch, tmp_path):
        log_path = tmp_path / "calls.log"
        monkeypatch.setattr(
            parallel_mod, "compute_task", counting_compute(log_path)
        )
        cache_dir = tmp_path / "cache"

        SimulationRunner(CFG, jobs=2, cache_dir=cache_dir).prefetch([GOOD_A])
        assert len(invocations(log_path)) == 1

        with telemetry_session() as tel:
            resumed = SimulationRunner(CFG, jobs=2, cache_dir=cache_dir)
            results = resumed.prefetch([GOOD_A, GOOD_B])
            snap = tel.snapshot()
        assert set(results) == {GOOD_A, GOOD_B}
        assert len(invocations(log_path)) == 2  # GOOD_A restored, not re-run
        assert snap["counters"]["cache.disk_hits"] == 1

    def test_unloaded_checkpoint_recomputes_everything(self, monkeypatch, tmp_path):
        """The cache dir is the checkpoint, and passing it is the explicit
        opt-in: a run pointed at another (fresh) dir recomputes."""
        log_path = tmp_path / "calls.log"
        monkeypatch.setattr(
            parallel_mod, "compute_task", counting_compute(log_path)
        )
        SimulationRunner(CFG, cache_dir=tmp_path / "a").prefetch([GOOD_A])
        SimulationRunner(CFG, cache_dir=tmp_path / "b").prefetch([GOOD_A])
        assert len(invocations(log_path)) == 2

    def test_failed_chunk_keeps_finished_chunks_on_disk(self, monkeypatch, tmp_path):
        """Results are stored as each chunk arrives, not when the sweep
        returns: a jobs=2 prefetch whose second chunk raises still leaves
        the first chunk's cells on disk, and the rerun computes only the
        failed chunk."""
        log_path = tmp_path / "calls.log"
        first_chunk = [GOOD_A, GOOD_B]  # both (AZ, 7): one chunk
        second_chunk = [
            SweepTask("mppt", "L1", "TN", 1),
            SweepTask("mppt", "H1", "TN", 1),
        ]

        def failing_second_chunk(task, config):
            if task in second_chunk:
                raise RuntimeError("worker fault")
            return real_compute(task, config)

        monkeypatch.setattr(
            parallel_mod, "compute_task",
            counting_compute(log_path, inner=failing_second_chunk),
        )
        cache_dir = tmp_path / "cache"
        with pytest.raises(SweepError, match="worker fault"):
            SimulationRunner(CFG, jobs=2, cache_dir=cache_dir).prefetch(
                first_chunk + second_chunk
            )
        assert len(invocations(log_path)) == 4
        cfg_key = parallel_mod.config_key(CFG)
        disk = DiskResultCache(cache_dir)
        for task in first_chunk:
            assert disk.load(task.cache_key(cfg_key)) is not None
        for task in second_chunk:
            assert disk.load(task.cache_key(cfg_key)) is None

        monkeypatch.setattr(
            parallel_mod, "compute_task", counting_compute(log_path)
        )
        rerun = SimulationRunner(CFG, jobs=2, cache_dir=cache_dir)
        results = rerun.prefetch(first_chunk + second_chunk)
        assert set(results) == set(first_chunk + second_chunk)
        recomputed = invocations(log_path)[4:]
        assert sorted(recomputed) == sorted(t.describe() for t in second_chunk)


class TestRunnerIntegration:
    def test_salvaging_runner_exposes_failure_report(self):
        runner = SimulationRunner(CFG, jobs=2, salvage=True, retries=1)
        results = runner.prefetch([GOOD_A, BAD])
        assert set(results) == {GOOD_A}
        assert runner.last_failure_report
        assert [f.task for f in runner.last_failure_report.failures] == [BAD]

    def test_salvaging_runner_reports_clean_run(self):
        runner = SimulationRunner(CFG, salvage=True)
        runner.prefetch([GOOD_A])
        assert runner.last_failure_report is not None
        assert not runner.last_failure_report

    def test_runner_threads_checkpoint_through_prefetch(self, tmp_path):
        """Prefetch persists each result through the runner's store hook."""
        runner = SimulationRunner(CFG, cache_dir=tmp_path)
        result = runner.prefetch([GOOD_A])[GOOD_A]
        # The memory tier and the disk store got the same frozen object.
        assert not result.mpp_w.flags.writeable
        stored = DiskResultCache(tmp_path).load(
            GOOD_A.cache_key(parallel_mod.config_key(CFG))
        )
        assert stored.retired_ginst_total == result.retired_ginst_total
