"""Resilient sweep execution: retries, failure reports, timeouts, resume.

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
    SweepTask,
    run_parallel,
)
from repro.harness.runner import SimulationRunner
from repro.telemetry import telemetry_session

CFG = SolarCoreConfig(step_minutes=10.0)

GOOD_A = SweepTask("mppt", "L1", "AZ", 7)
GOOD_B = SweepTask("mppt", "H1", "AZ", 7)
#: "NOPE" is not a workload mix; computing this task raises in the worker.
BAD = SweepTask("mppt", "NOPE", "TN", 1)

real_compute = parallel_mod.compute_task


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retry waves start at once (the backoff schedule is not under test)."""
    monkeypatch.setattr(parallel_mod, "RETRY_BASE_S", 0.0)


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


def collecting_store():
    """A ``store`` hook plus the dict it fills."""
    stored = {}

    def store(task, result):
        stored[task] = result

    return store, stored


class TestSalvage:
    """A failing sweep keeps every good result: each reaches ``store``
    before one :class:`SweepError` lists every failed task."""

    def test_parallel_salvage_returns_partial_results(self):
        store, stored = collecting_store()
        with pytest.raises(SweepError) as err:
            run_parallel([GOOD_A, BAD], CFG, jobs=2, store=store)
        assert set(stored) == {GOOD_A}
        assert list(err.value.failures) == [BAD]
        _error, attempts, timed_out = err.value.failures[BAD]
        assert attempts == 1 and not timed_out
        assert "mix=NOPE" in str(err.value)

    def test_serial_salvage_matches(self):
        store, stored = collecting_store()
        with pytest.raises(SweepError) as err:
            run_parallel([GOOD_A, BAD], CFG, jobs=1, store=store)
        assert set(stored) == {GOOD_A}
        assert list(err.value.failures) == [BAD]

    def test_two_bad_tasks_raise_one_error_naming_both(self, tmp_path):
        """Every failed task is listed with its attempt count and timed-out
        flag, every good task already reached ``store``, and a rerun on
        the same cache dir computes only the bad tasks."""
        log_path = tmp_path / "calls.log"
        bad_b = SweepTask("mppt", "NOPE", "AZ", 1)
        tasks = [GOOD_A, BAD, GOOD_B, bad_b]
        store, stored = collecting_store()
        with pytest.raises(SweepError) as err:
            run_parallel(tasks, CFG, jobs=2, retries=1, store=store)
        assert set(stored) == {GOOD_A, GOOD_B}
        failures = err.value.failures
        assert list(failures) == [BAD, bad_b]
        for task in (BAD, bad_b):
            error, attempts, timed_out = failures[task]
            assert attempts == 2 and timed_out is False
            assert "KeyError" in error
            assert task.describe() in str(err.value)

        cache_dir = tmp_path / "cache"
        with pytest.raises(SweepError):
            SimulationRunner(CFG, jobs=2, cache_dir=cache_dir).prefetch(tasks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                parallel_mod, "compute_task", counting_compute(log_path)
            )
            with pytest.raises(SweepError):
                SimulationRunner(CFG, jobs=2, cache_dir=cache_dir).prefetch(tasks)
        assert sorted(invocations(log_path)) == sorted(
            t.describe() for t in (BAD, bad_b)
        )

    def test_worker_crash_is_contained(self, monkeypatch):
        """A worker dying mid-task (BrokenProcessPool) fails only its
        tasks; healthy cells complete via the fresh-pool retry wave."""

        def crashing(task, config):
            if task.mix_name == "NOPE":
                # Die only after the healthy chunk has landed, so only
                # the crashing cell needs the retry wave.
                time.sleep(1.0)
                os._exit(13)
            return real_compute(task, config)

        monkeypatch.setattr(parallel_mod, "compute_task", crashing)
        store, stored = collecting_store()
        with pytest.raises(SweepError) as err:
            run_parallel([GOOD_A, BAD], CFG, jobs=2, retries=1, store=store)
        assert GOOD_A in stored
        (failed,) = err.value.failures
        assert failed == BAD
        error, attempts, _timed_out = err.value.failures[BAD]
        assert attempts == 2
        assert "BrokenProcessPool" in error

    def test_without_salvage_the_sweep_raises(self):
        with pytest.raises(SweepError, match=r"(?s)1 sweep task\(s\) failed.*mix=NOPE"):
            run_parallel([GOOD_A, BAD], CFG, jobs=1)

    def test_failure_report_is_plain_data(self):
        error = SweepError({BAD: ("KeyError: 'NOPE'", 3, False)})
        assert error.failures[BAD] == ("KeyError: 'NOPE'", 3, False)
        assert "failed after 3 attempt(s)" in str(error)


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
            results = run_parallel([GOOD_A], CFG, jobs=1, retries=1)
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
        results = run_parallel([GOOD_A], CFG, jobs=2, retries=2)
        assert GOOD_A in results
        assert len(invocations(log_path)) == 2

    def test_retries_exhausted_reports_attempt_count(self):
        with pytest.raises(SweepError, match=r"after 3 attempt") as err:
            run_parallel([BAD], CFG, jobs=1, retries=2)
        assert err.value.failures[BAD][1] == 3

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
            with pytest.raises(SweepError) as err:
                run_parallel([GOOD_A], CFG, jobs=2, task_timeout=0.2)
            snap = tel.snapshot()
        assert time.monotonic() - start < 15.0, "the sweep must not hang"
        error, attempts, timed_out = err.value.failures[GOOD_A]
        assert timed_out and attempts == 1
        assert "timed out" in error
        assert snap["counters"]["sweep.timeouts"] == 1

    def test_fast_tasks_unaffected_by_generous_timeout(self):
        results = run_parallel([GOOD_A], CFG, jobs=2, task_timeout=120.0)
        assert GOOD_A in results

    def test_timeout_needs_a_worker_process(self):
        """An in-process task cannot be abandoned, so a timeout without
        workers is refused instead of silently ignored."""
        with pytest.raises(ValueError, match="jobs >= 2"):
            run_parallel([GOOD_A], CFG, jobs=1, task_timeout=5.0)
        with pytest.raises(ValueError, match="jobs >= 2"):
            SimulationRunner(CFG, task_timeout=5.0)


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

        first = SimulationRunner(CFG, cache_dir=cache_dir)
        with pytest.raises(SweepError):
            first.prefetch([GOOD_A, GOOD_B, BAD])
        assert len(invocations(log_path)) == 3  # two successes + one failure

        # "Crash"; a new process reruns with the same cache dir.
        resumed = SimulationRunner(CFG, cache_dir=cache_dir)
        with pytest.raises(SweepError) as err:
            resumed.prefetch([GOOD_A, GOOD_B, BAD])
        assert list(err.value.failures) == [BAD]
        assert resumed.disk.hits == 2
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
    def test_failed_prefetch_keeps_good_results_in_memory(self):
        runner = SimulationRunner(CFG, jobs=2, retries=1)
        with pytest.raises(SweepError) as err:
            runner.prefetch([GOOD_A, BAD])
        assert list(err.value.failures) == [BAD]
        assert runner.peek_memory(GOOD_A) is not None
        assert runner.stats()["misses"] == 1

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
