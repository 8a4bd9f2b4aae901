"""Cached execution of day simulations for the experiment harness.

Most figures slice the same underlying grid of day simulations
(location x month x mix x policy).  ``SimulationRunner`` memoizes each day
run so the whole benchmark suite pays for every distinct simulation exactly
once per process — and, when constructed with ``cache_dir=``, exactly once
per *codebase*: results persist to a content-addressed disk cache
(:class:`~repro.harness.parallel.DiskResultCache`) keyed by the full
simulation identity plus a source fingerprint, so every later process
reads them back instead of recomputing.  With ``jobs=N`` the runner fans
grid prefetches out across worker processes
(:func:`~repro.harness.parallel.run_parallel`).

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
    SweepFailureReport,
    SweepTask,
    compute_task,
    config_key as _config_key,
    run_parallel,
    run_serial,
)
from repro.telemetry import hub as telemetry_hub

__all__ = ["SimulationRunner", "default_runner"]

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

    Args:
        config: Simulation configuration shared by every run.
        jobs: Worker processes used by :meth:`prefetch` (1 = serial).
        cache_dir: Directory for the persistent result cache, or None to
            keep results in memory only.
        retries: Retry waves for failed prefetch tasks (see
            :func:`~repro.harness.parallel.run_parallel`).
        task_timeout: Per-task wall-clock budget [s] for parallel
            prefetches (None = unbounded; ignored when ``jobs == 1``).
        salvage: Prefetches return every completed cell plus a
            :class:`~repro.harness.parallel.SweepFailureReport` (exposed
            as :attr:`last_failure_report`) instead of aborting on the
            first permanently failed task.
        lease_stale_s: When set (and a disk cache is attached), single-task
            computes go through the cross-process lease protocol
            (:meth:`~repro.harness.parallel.DiskResultCache.load_or_compute`):
            N processes sharing one cache directory produce exactly one
            compute per key, and a leader dead longer than this many
            seconds is replaced.  None (default) keeps the lease-free
            single-process behavior.
    """

    def __init__(
        self,
        config: SolarCoreConfig | None = None,
        *,
        jobs: int = 1,
        cache_dir=None,
        retries: int = 0,
        task_timeout: float | None = None,
        salvage: bool = False,
        lease_stale_s: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if lease_stale_s is not None and lease_stale_s <= 0:
            raise ValueError(f"lease_stale_s must be > 0, got {lease_stale_s}")
        self.config = config or SolarCoreConfig()
        self.jobs = jobs
        self.disk = DiskResultCache(cache_dir) if cache_dir is not None else None
        self.lease_stale_s = lease_stale_s
        #: Computes this runner ceded to another process's lease.
        self.lease_follows = 0
        self.retries = retries
        self.task_timeout = task_timeout
        self.salvage = salvage
        #: The failure report of the most recent salvaged prefetch (falsy
        #: when it completed fully; None before any salvaged prefetch).
        self.last_failure_report: SweepFailureReport | None = None
        self._cfg_key = _config_key(self.config)
        self._days: dict[tuple, DayResult] = {}
        self._battery: dict[tuple, BatteryDayResult] = {}
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

    def _store_of(self, task: SweepTask) -> dict:
        return self._battery if task.kind == "battery" else self._days

    def _from_disk(self, task: SweepTask, key: tuple):
        """Try the disk cache (which counts ``cache.disk_hits``/``misses``);
        freeze and memoize on a hit."""
        if self.disk is None:
            return None
        result = self.disk.load(key)
        if result is None:
            return None
        result = _freeze(result)
        self._store_of(task)[key] = result
        return result

    def _get(self, task: SweepTask):
        """Memory cache -> disk cache -> compute, memoizing at each tier."""
        key = task.cache_key(self._cfg_key)
        cached = self._store_of(task).get(key)
        self._note(cached is not None)
        if cached is not None:
            return cached
        result = self._from_disk(task, key)
        if result is not None:
            return result
        log.debug("cache miss: %s", task.describe())
        tel = telemetry_hub.current()
        if self.disk is not None and self.lease_stale_s is not None:
            # Cross-process dedup: exactly one process on this cache dir
            # computes the key; everyone else waits and reads the store.
            result, computed = self.disk.load_or_compute(
                key,
                lambda: compute_task(task, self.config),
                stale_after_s=self.lease_stale_s,
            )
            result = _freeze(result)
            if computed:
                if tel.enabled:
                    tel.count("runner.computes")
            else:
                self.lease_follows += 1
                if tel.enabled:
                    tel.count("runner.lease_follows")
            self._store_of(task)[key] = result
            return result
        if tel.enabled:
            tel.count("runner.computes")
        return self._keep(task, compute_task(task, self.config))

    def _keep(self, task: SweepTask, result):
        """Freeze ``result``, memoize it, and persist it to the disk cache.

        The memory tier and the disk store receive the same frozen object.
        Prefetches pass this (via their store hook) to the sweep engines,
        which call it as each result arrives, so rerunning with the same
        ``cache_dir`` resumes an interrupted sweep.
        """
        key = task.cache_key(self._cfg_key)
        result = _freeze(result)
        self._store_of(task)[key] = result
        if self.disk is not None:
            self.disk.store(key, result)
        return result

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

    def peek(self, task: SweepTask):
        """The cached result for ``task`` (memory, then disk) — or None.

        Never computes.  The service uses this for cache-hit-first
        serving: a hit is answered immediately, only a miss enters the
        coalescer.  Hit/miss counters are booked like :meth:`day` lookups.
        """
        key = task.cache_key(self._cfg_key)
        cached = self._store_of(task).get(key)
        self._note(cached is not None)
        if cached is not None:
            return cached
        return self._from_disk(task, key)

    def run_task(self, task: SweepTask):
        """Compute (or fetch) one task through the tiered cache.

        Public equivalent of the internal :meth:`_get` used by the
        :meth:`day` / :meth:`fixed_day` / :meth:`battery_day` wrappers;
        the service's executor bridge calls this from worker threads.
        Concurrent calls for *distinct* keys are safe; serializing
        same-key calls is the caller's job (the service's coalescer
        guarantees it, which keeps the ``runner.computes`` telemetry
        counter an exact compute count).
        """
        return self._get(task)

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
    # Grid prefetch (the parallel path)
    # ------------------------------------------------------------------
    def prefetch(self, tasks) -> dict[SweepTask, DayResult | BatteryDayResult]:
        """Materialize every task, fanning misses out over ``jobs`` workers.

        Memory- and disk-cached tasks are never re-run; the remainder is
        chunked by (location, month) and computed by
        :func:`~repro.harness.parallel.run_parallel` when ``jobs > 1``
        (:func:`~repro.harness.parallel.run_serial` otherwise), honoring
        the runner's ``retries`` / ``task_timeout`` / ``salvage``
        settings.  Every result is memoized and stored to the disk cache
        as it arrives, so a crashed prefetch resumes by rerunning it with
        the same ``cache_dir``.  Per-worker telemetry snapshots are
        merged into the parent hub, so the post-run summary covers
        worker-side simulation counters, histograms and timers.

        Returns:
            Every requested task's result (frozen, shared with later
            callers of :meth:`day` / :meth:`fixed_day` /
            :meth:`battery_day`).  In salvage mode, permanently failed
            tasks are simply absent and :attr:`last_failure_report`
            holds the structured account.
        """
        tasks = list(dict.fromkeys(tasks))
        missing = []
        for task in tasks:
            key = task.cache_key(self._cfg_key)
            if key in self._store_of(task):
                continue
            if self._from_disk(task, key) is not None:
                continue
            missing.append(task)
        report: SweepFailureReport | None = None
        if missing:
            tel = telemetry_hub.current()
            if tel.enabled:
                tel.count("runner.computes", len(missing))

            def store(task, result):
                self._keep(task, result)
                self._note(False)

            if self.jobs > 1:
                outcome = run_parallel(
                    missing, self.config, self.jobs,
                    collect_telemetry=tel.enabled,
                    collect_profile=tel.profiling,
                    retries=self.retries,
                    task_timeout=self.task_timeout,
                    salvage=self.salvage,
                    store=store,
                )
                for snapshot in outcome[1]:
                    tel.merge_snapshot(snapshot)
            else:
                outcome = run_serial(
                    missing, self.config,
                    retries=self.retries,
                    salvage=self.salvage,
                    store=store,
                )
            if self.salvage:
                report = outcome[-1]
        if self.salvage:
            self.last_failure_report = report or SweepFailureReport(
                attempted=len(tasks), completed=len(tasks)
            )
            completed = [
                task for task in tasks
                if task.cache_key(self._cfg_key) in self._store_of(task)
            ]
            return {task: self._get(task) for task in completed}
        return {task: self._get(task) for task in tasks}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cached_runs(self) -> int:
        """Number of distinct simulations held in the cache."""
        return len(self._days) + len(self._battery)

    def stats(self) -> dict[str, float]:
        """Cache effectiveness counters.

        Returns:
            ``hits``, ``misses``, ``cached_runs``, and ``hit_rate`` (0.0
            when the runner has not been asked for anything yet), plus
            ``disk_hits`` / ``disk_misses`` when a disk cache is attached.
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
        if self.lease_stale_s is not None:
            stats["lease_follows"] = self.lease_follows
        return stats


#: Process-wide runner shared by the benchmark suite.
default_runner = SimulationRunner()
