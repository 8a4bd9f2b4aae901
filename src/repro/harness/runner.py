"""Cached execution of day simulations for the experiment harness.

Most figures slice the same underlying grid of day simulations
(location x month x mix x policy).  ``SimulationRunner`` memoizes each day
run so the whole benchmark suite pays for every distinct simulation exactly
once per process — and, when constructed with ``cache_dir=``, exactly once
per *codebase*: results persist to a content-addressed disk cache
(:class:`~repro.harness.parallel.DiskResultCache`) keyed by the full
simulation identity plus a source fingerprint, so every later process
reads them back instead of recomputing.  Grid prefetches sweep through
:func:`~repro.harness.parallel.run_parallel` (over ``jobs`` worker
processes when ``jobs > 1``).

Because memoized results are handed to *every* caller, their numpy arrays
are frozen (``writeable = False``) before caching: a benchmark that
normalizes a series in place would otherwise silently corrupt the result
every later caller sees.
"""

from __future__ import annotations

import logging
from dataclasses import fields

import numpy as np

from repro.core.config import SolarCoreConfig
from repro.core.simulation import BatteryDayResult, DayResult
from repro.environment.locations import Location, location_by_code
from repro.harness.parallel import (
    DiskResultCache,
    SweepTask,
    compute_task,
    config_key as _config_key,
    run_parallel,
)
from repro.telemetry import hub as telemetry_hub

__all__ = ["SimulationRunner"]

log = logging.getLogger(__name__)


def _freeze(result):
    """Mark every numpy array of a cached result read-only (callers share
    them).  Covers :class:`DayResult` (policy and fixed-budget days) and
    any array-carrying field a future :class:`BatteryDayResult` grows;
    battery results are additionally frozen dataclasses, so their scalar
    fields already reject mutation.
    """
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return result


class SimulationRunner:
    """Runs and memoizes day simulations.

    A missing result is computed in exactly one of two ways: a sweep
    through :func:`~repro.harness.parallel.run_parallel`
    (:meth:`prefetch`) or a single miss through :meth:`run_task`'s
    memory -> disk -> compute path, which every :meth:`day` /
    :meth:`fixed_day` / :meth:`battery_day` lookup takes too.

    Args:
        config: Simulation configuration shared by every run.
        jobs: Worker processes used by :meth:`prefetch` (1 = in-process).
        cache_dir: Directory for the persistent result cache, or None to
            keep results in memory only.  With it, every single miss goes
            through the cross-process lease
            (:meth:`~repro.harness.parallel.DiskResultCache.load_or_compute`):
            N processes sharing one cache directory produce exactly one
            compute per key, and a leader that dies is replaced at once.
        retries: Retry waves for failed prefetch tasks (see
            :func:`~repro.harness.parallel.run_parallel`).
        task_timeout: Per-task wall-clock budget [s] for prefetches
            (None = unbounded); needs ``jobs >= 2``.
    """

    def __init__(
        self,
        config: SolarCoreConfig | None = None,
        *,
        jobs: int = 1,
        cache_dir=None,
        retries: int = 0,
        task_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and jobs < 2:
            raise ValueError(
                "task_timeout needs jobs >= 2: only a worker process can be "
                "abandoned when a task hangs"
            )
        self.config = config or SolarCoreConfig()
        self.jobs = jobs
        self.disk = DiskResultCache(cache_dir) if cache_dir is not None else None
        #: Computes this runner ceded to another process's lease.
        self.lease_follows = 0
        self.retries = retries
        self.task_timeout = task_timeout
        self._cfg_key = _config_key(self.config)
        #: Every result this runner holds, keyed by its cache key.
        self._memo: dict[tuple, DayResult | BatteryDayResult] = {}
        self._hits = 0
        self._misses = 0

    def _resolve(self, location: Location | str) -> Location:
        if isinstance(location, str):
            return location_by_code(location)
        return location

    def _note(self, hit: bool) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("runner.cache_hits" if hit else "runner.cache_misses")

    def _memoize(self, key: tuple, result):
        """Freeze ``result`` and keep it in the memory tier."""
        result = _freeze(result)
        self._memo[key] = result
        return result

    def _from_disk(self, key: tuple):
        """Try the disk cache (which counts ``cache.disk_hits``/``misses``);
        freeze and memoize on a hit."""
        if self.disk is None:
            return None
        result = self.disk.load(key)
        return None if result is None else self._memoize(key, result)

    # ------------------------------------------------------------------
    # Cache identity and tier access (the service's coalescing surface)
    # ------------------------------------------------------------------
    def cache_key(self, task: SweepTask) -> tuple:
        """The complete cache identity of ``task`` under this runner's config.

        This is the exact tuple the memory memo, the disk cache, and the
        worker protocol key on — and therefore the unit of request
        coalescing in :mod:`repro.service`: two tasks with equal keys are
        the same simulation, byte for byte.
        """
        return task.cache_key(self._cfg_key)

    def peek_memory(self, task: SweepTask):
        """The memory tier's result for ``task``, or None.

        Never touches the disk or computes, so the service calls it on
        its event loop to answer a hit without a thread hop.
        """
        return self._memo.get(task.cache_key(self._cfg_key))

    def run_task(self, task: SweepTask):
        """Memory -> disk -> compute for one task, memoizing the result.

        The single-miss path behind :meth:`day` / :meth:`fixed_day` /
        :meth:`battery_day`, public for the service's compute threads.
        With a disk cache the compute runs under a cross-process lease
        and its result is stored before it returns.  Concurrent calls for
        *distinct* keys are safe; serializing same-key calls is the
        caller's job (the service's coalescer guarantees it, which keeps
        the ``runner.computes`` telemetry counter an exact compute count).
        """
        return self._get(task)

    def _get(self, task: SweepTask):
        key = task.cache_key(self._cfg_key)
        cached = self._memo.get(key)
        self._note(cached is not None)
        if cached is not None:
            return cached
        result = self._from_disk(key)
        if result is not None:
            return result
        log.debug("cache miss: %s", task.describe())

        def compute():
            return _freeze(compute_task(task, self.config))

        if self.disk is None:
            result, computed = compute(), True
        else:
            # Cross-process dedup: exactly one process on this cache dir
            # computes the key; everyone else waits and reads the store.
            result, computed = self.disk.load_or_compute(key, compute)
        tel = telemetry_hub.current()
        if not computed:
            self.lease_follows += 1
        if tel.enabled:
            tel.count("runner.computes" if computed else "runner.lease_follows")
        return self._memoize(key, result)

    # ------------------------------------------------------------------
    # Single-simulation entry points
    # ------------------------------------------------------------------
    def day(
        self,
        mix_name: str,
        location: Location | str,
        month: int,
        policy: str = "MPPT&Opt",
        seed: int | None = None,
        faults: str | None = None,
    ) -> DayResult:
        """A (cached) SolarCore day simulation."""
        loc = self._resolve(location)
        return self._get(SweepTask(
            "mppt", mix_name, loc.code, month, policy=policy, seed=seed,
            faults=faults,
        ))

    def fixed_day(
        self,
        mix_name: str,
        location: Location | str,
        month: int,
        budget_w: float,
        seed: int | None = None,
        faults: str | None = None,
    ) -> DayResult:
        """A (cached) Fixed-Power day simulation."""
        loc = self._resolve(location)
        return self._get(SweepTask(
            "fixed", mix_name, loc.code, month, budget_w=budget_w, seed=seed,
            faults=faults,
        ))

    def battery_day(
        self,
        mix_name: str,
        location: Location | str,
        month: int,
        derating: float,
        seed: int | None = None,
        faults: str | None = None,
    ) -> BatteryDayResult:
        """A (cached) battery-baseline day simulation."""
        loc = self._resolve(location)
        return self._get(SweepTask(
            "battery", mix_name, loc.code, month, derating=derating, seed=seed,
            faults=faults,
        ))

    # ------------------------------------------------------------------
    # Grid prefetch (the sweep path)
    # ------------------------------------------------------------------
    def prefetch(self, tasks) -> dict[SweepTask, DayResult | BatteryDayResult]:
        """Materialize every task, sweeping the misses through
        :func:`~repro.harness.parallel.run_parallel`.

        Memory- and disk-cached tasks are never re-run; the remainder is
        computed with the runner's ``jobs`` / ``retries`` /
        ``task_timeout``.  Every result is memoized and stored to the
        disk cache as it arrives, so a failed or crashed prefetch resumes
        by rerunning it with the same ``cache_dir``.

        Returns:
            Every requested task's result (frozen, shared with later
            callers of :meth:`day` / :meth:`fixed_day` /
            :meth:`battery_day`).

        Raises:
            SweepError: Some tasks failed every attempt; every other
                task is already memoized and stored.
        """
        tasks = list(dict.fromkeys(tasks))
        missing = [
            task for task in tasks
            if self.peek_memory(task) is None
            and self._from_disk(task.cache_key(self._cfg_key)) is None
        ]
        if missing:
            tel = telemetry_hub.current()
            if tel.enabled:
                tel.count("runner.computes", len(missing))

            def store(task, result):
                self._note(False)
                key = task.cache_key(self._cfg_key)
                result = self._memoize(key, result)
                if self.disk is not None:
                    self.disk.store(key, result)

            run_parallel(
                missing, self.config, self.jobs,
                retries=self.retries, task_timeout=self.task_timeout,
                store=store,
            )
        return {task: self._get(task) for task in tasks}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cached_runs(self) -> int:
        """Number of distinct simulations held in the cache."""
        return len(self._memo)

    def stats(self) -> dict[str, float]:
        """Cache effectiveness counters.

        Returns:
            ``hits``, ``misses``, ``cached_runs``, and ``hit_rate`` (0.0
            when the runner has not been asked for anything yet), plus
            ``disk_hits`` / ``disk_misses`` / ``lease_follows`` when a
            disk cache is attached.
        """
        lookups = self._hits + self._misses
        stats = {
            "hits": self._hits,
            "misses": self._misses,
            "cached_runs": self.cached_runs,
            "hit_rate": self._hits / lookups if lookups else 0.0,
        }
        if self.disk is not None:
            stats["disk_hits"] = self.disk.hits
            stats["disk_misses"] = self.disk.misses
            stats["lease_follows"] = self.lease_follows
        return stats
