"""Parallel sweep engine with a persistent, content-addressed result cache.

The paper's entire evaluation (Figures 13-21, Table 7) is a grid of
*independent* day simulations over (station x month x mix x policy).  This
module fans that grid out across worker processes and persists every
result to disk, keyed by the complete simulation identity:

* :class:`SweepTask` — one cell of the grid, a picklable value object
  naming the simulation kind (``mppt`` / ``fixed`` / ``battery``) and its
  coordinates.  :meth:`SweepTask.cache_key` is the single key used by the
  in-memory memo, the disk cache, and the worker protocol.
* :class:`DiskResultCache` — a content-addressed on-disk cache.  Entries
  are addressed by SHA-256 over (format version, code fingerprint, task
  key, config key); writes are atomic (``os.replace`` of a same-directory
  temp file); corrupt or mismatched entries are deleted with a warning and
  recomputed — never returned.
* :func:`run_parallel` — a ``ProcessPoolExecutor`` fan-out, chunked by
  (location, month) cell so each worker amortizes its per-cell state.
  Workers run under the null telemetry hub (no sinks of the parent leak
  into children); when the parent's hub is enabled each worker instead
  collects into a private hub and ships its snapshot (counters,
  histogram buckets, timers) back for the parent's post-run summary.
  Results reach the caller's ``store`` hook in the parent as each chunk
  completes, so a crash mid-sweep loses only the chunks still running.

Determinism is a hard requirement: identical seeds yield byte-identical
:class:`~repro.core.simulation.DayResult` arrays whether computed serially,
in parallel, or read back from disk — enforced by the golden tests in
``tests/harness/test_parallel.py``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import random
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

from repro.core.config import SolarCoreConfig
from repro.core.simulation import (
    BatteryDayResult,
    DayResult,
    run_day,
    run_day_battery,
    run_day_fixed,
)
from repro.environment.locations import Location, location_by_code
from repro.faults.schedule import FaultSchedule
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.hub import Telemetry

__all__ = [
    "SweepTask",
    "SweepError",
    "TaskFailure",
    "SweepFailureReport",
    "DiskResultCache",
    "CacheLease",
    "compute_task",
    "run_parallel",
    "run_serial",
    "grid_tasks",
    "config_key",
    "code_fingerprint",
    "CACHE_FORMAT_VERSION",
]

log = logging.getLogger(__name__)

#: Bump to invalidate every existing disk-cache entry (layout changes,
#: semantic fixes that do not show up in the source fingerprint, ...).
#: v2: the unified DayEngine replaced the per-scenario day loops — caches
#: written by the forked-loop implementations are purged on first open.
#: v3: ChipSpec — ``SolarCoreConfig`` grew the ``chip_spec`` field, which
#: changes every ``config_key`` layout; pre-spec entries are purged loudly
#: on first open.
CACHE_FORMAT_VERSION = 3

#: Marker file recording which format a cache directory was written by.
#: Directories without it (all pre-v2 caches) are treated as stale.
_FORMAT_MARKER = "CACHE_FORMAT"

#: Task kinds, mirroring the three day-simulation entry points.
_KINDS = ("mppt", "fixed", "battery")


def config_key(config: SolarCoreConfig) -> tuple:
    """A hashable cache key over every config field.

    Fails loudly — naming the offending field — if a future
    :class:`SolarCoreConfig` gains an unhashable field, instead of raising
    a bare ``unhashable type`` deep inside a dict lookup.
    """
    key = []
    for f in fields(config):
        value = getattr(config, f.name)
        try:
            hash(value)
        except TypeError as exc:
            raise TypeError(
                f"SolarCoreConfig.{f.name} is not hashable "
                f"({type(value).__name__}: {value!r}); "
                "make the field hashable or exclude it from the cache key"
            ) from exc
        key.append(value)
    return tuple(key)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    Any code change — a fixed bug, a new config default, a retuned model —
    changes the fingerprint and therefore invalidates every disk-cache
    entry, so a stale cache can never masquerade as current results.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class SweepTask:
    """One cell of the day-simulation grid.

    Attributes:
        kind: ``mppt`` (policy day), ``fixed`` (Fixed-Power baseline), or
            ``battery`` (battery-equipped baseline).
        mix_name: Table 5 workload mix.
        location_code: Station code (canonical, e.g. ``AZ``).
        month: Calendar month.
        policy: Load-adaptation policy (``mppt`` tasks).
        budget_w: Power-transfer threshold [W] (``fixed`` tasks).
        derating: Overall de-rating factor (``battery`` tasks).
        seed: Weather-realization seed, or None for the standard seeded
            trace of the (station, month).
        faults: Fault-schedule spec string (see
            :meth:`repro.faults.schedule.FaultSchedule.parse`), or None
            for a fault-free day.  Canonicalized on construction so
            equivalent spellings share a cache entry.
    """

    kind: str
    mix_name: str
    location_code: str
    month: int
    policy: str = "MPPT&Opt"
    budget_w: float | None = None
    derating: float | None = None
    seed: int | None = None
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "fixed" and self.budget_w is None:
            raise ValueError("fixed tasks require budget_w")
        if self.kind == "battery" and self.derating is None:
            raise ValueError("battery tasks require derating")
        # Canonicalize station aliases ("AZ" -> "PFCI") so the same
        # simulation always maps to the same cache key, however named.
        object.__setattr__(
            self, "location_code", location_by_code(self.location_code).code
        )
        if self.faults is not None:
            # Normalized spec (or None when it parses empty), so "none",
            # "", and reordered spellings all address the same entry.
            object.__setattr__(
                self, "faults", FaultSchedule.parse(self.faults).canonical() or None
            )

    @property
    def param(self) -> str | float:
        """The kind-specific knob: policy, budget, or derating."""
        if self.kind == "fixed":
            return self.budget_w
        if self.kind == "battery":
            return self.derating
        return self.policy

    @property
    def cell(self) -> tuple[str, int]:
        """The (location, month) cell the task belongs to."""
        return (self.location_code, self.month)

    def cache_key(self, cfg_key: tuple) -> tuple:
        """The complete simulation identity, for memo and disk caches."""
        return (
            self.kind,
            self.mix_name,
            self.location_code,
            self.month,
            self.param,
            self.seed,
            self.faults,
            cfg_key,
        )

    def describe(self) -> str:
        """Human-readable coordinates for logs and error messages."""
        text = (
            f"kind={self.kind} mix={self.mix_name} "
            f"location={self.location_code} month={self.month} "
            f"param={self.param}"
        )
        if self.seed is not None:
            text += f" seed={self.seed}"
        if self.faults is not None:
            text += f" faults={self.faults}"
        return text


class SweepError(RuntimeError):
    """A sweep task failed; the message carries the failing coordinates."""


@dataclass(frozen=True)
class TaskFailure:
    """One task that stayed failed after every retry wave.

    Attributes:
        task: The failing grid cell.
        error: ``TypeName: message`` of the last failure (or a timeout
            description).
        attempts: How many times the task was tried.
        timed_out: True when the last failure was a per-task timeout
            rather than a raised exception.
    """

    task: SweepTask
    error: str
    attempts: int
    timed_out: bool = False


@dataclass
class SweepFailureReport:
    """Structured account of a salvaged sweep (``salvage=True``).

    Falsy when every task completed, so ``if report:`` reads naturally.

    Attributes:
        failures: Tasks that stayed failed after every retry, in the
            submitted task order.
        completed: Tasks that produced a result.
        attempted: Unique tasks the sweep was asked to run.
    """

    failures: list[TaskFailure] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0

    def __bool__(self) -> bool:
        return bool(self.failures)

    def summary(self) -> str:
        """Multi-line human-readable account for logs and CLI output."""
        if not self.failures:
            return f"sweep complete: all {self.attempted} task(s) succeeded"
        lines = [
            f"sweep salvaged: {len(self.failures)} of {self.attempted} "
            f"task(s) failed ({self.completed} completed):"
        ]
        for failure in self.failures:
            flavor = "timed out" if failure.timed_out else "failed"
            lines.append(
                f"  - {failure.task.describe()}: {flavor} after "
                f"{failure.attempts} attempt(s): {failure.error}"
            )
        return "\n".join(lines)


def compute_task(
    task: SweepTask, config: SolarCoreConfig
) -> DayResult | BatteryDayResult:
    """Run one task — the single execution path shared by the serial
    runner and every worker process, so both compute identical results.

    Every kind dispatches through the unified
    :class:`repro.core.engine.DayEngine` via the public ``run_day*``
    shims, so cached, serial, and parallel results all come from the
    same stepping loop."""
    loc: Location = location_by_code(task.location_code)
    if task.kind == "mppt":
        return run_day(
            task.mix_name, loc, task.month, task.policy,
            config=config, seed=task.seed, faults=task.faults,
        )
    if task.kind == "fixed":
        return run_day_fixed(
            task.mix_name, loc, task.month, task.budget_w,
            config=config, seed=task.seed, faults=task.faults,
        )
    return run_day_battery(
        task.mix_name, loc, task.month, task.derating,
        config=config, seed=task.seed, faults=task.faults,
    )


# ----------------------------------------------------------------------
# Persistent disk cache
# ----------------------------------------------------------------------
@dataclass
class CacheLease:
    """Ownership of one key's compute, held via an on-disk lease file.

    The file's *mtime is the heartbeat*: :meth:`refresh` touches it, and
    :meth:`DiskResultCache.try_lease` treats an mtime older than its
    staleness bound as a dead owner.  The token written inside the file
    is the identity check — every mutation verifies it first, so a lease
    taken over by another process is never refreshed or released by the
    original (now deposed) owner.
    """

    path: Path
    token: str

    def owned(self) -> bool:
        """Does the lease file still carry our token?"""
        try:
            doc = json.loads(self.path.read_bytes())
            return doc.get("token") == self.token
        except (OSError, ValueError):
            return False

    def refresh(self) -> bool:
        """Heartbeat: bump the lease mtime if we still own it."""
        if not self.owned():
            return False
        try:
            os.utime(self.path, None)
        except OSError:
            return False
        return True

    def release(self) -> None:
        """Drop the lease if we still own it (idempotent, never raises)."""
        if self.owned():
            try:
                self.path.unlink()
            except OSError:
                pass

    @contextmanager
    def heartbeats(self, interval_s: float):
        """Refresh the lease from a daemon thread while the body runs.

        The thread stops on exit or the first failed refresh (a deposed
        lease is unrecoverable; the compute still runs to completion —
        the worst case is duplicated work on a deterministic result).
        """
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval_s):
                if not self.refresh():
                    return

        thread = threading.Thread(
            target=beat, name="cache-lease-heartbeat", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=5.0)


class DiskResultCache:
    """Content-addressed on-disk cache of day-simulation results.

    Entries live as ``<sha256>.pkl`` files under ``root``; the digest
    covers the cache format version, the code fingerprint, and the full
    task key, so a changed codebase or config addresses different files.
    Writes are atomic (same-directory temp file + ``os.replace``), safe
    under concurrent writers — the worst case is two processes computing
    the same entry, and last-write-wins of identical bytes.

    Args:
        root: Cache directory (created on first store).
        fingerprint: Code-fingerprint override (tests use this to model a
            code change; defaults to :func:`code_fingerprint`).
    """

    def __init__(self, root: str | Path, fingerprint: str | None = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self._ensure_format()

    def _ensure_format(self) -> None:
        """Purge entries written by an older cache format — loudly.

        A format bump means the result layout or the simulation engine
        changed in a way the per-entry addressing cannot express; serving
        (or silently orphaning) old entries is not acceptable, so every
        ``*.pkl`` under a stale or unmarked directory is deleted with a
        warning and the directory is stamped with the current format.
        """
        marker = self.root / _FORMAT_MARKER
        try:
            stored: int | None = int(marker.read_text().strip())
        except (FileNotFoundError, ValueError):
            stored = None
        if stored == CACHE_FORMAT_VERSION:
            return
        stale = sorted(self.root.glob("*.pkl"))
        if stale:
            log.warning(
                "disk cache %s was written by format %s (current: %s); "
                "deleting %d stale entry(ies) — they will be recomputed",
                self.root,
                "unknown" if stored is None else stored,
                CACHE_FORMAT_VERSION,
                len(stale),
            )
            for path in stale:
                try:
                    path.unlink()
                except OSError as exc:
                    log.warning(
                        "could not delete stale cache entry %s: %s", path, exc
                    )
        self.root.mkdir(parents=True, exist_ok=True)
        marker.write_text(f"{CACHE_FORMAT_VERSION}\n")

    def path_for(self, key: tuple) -> Path:
        """The entry file a key addresses (exists only after a store)."""
        digest = hashlib.sha256(
            f"{CACHE_FORMAT_VERSION}|{self.fingerprint}|{key!r}".encode()
        ).hexdigest()
        return self.root / f"{digest}.pkl"

    def load(self, key: tuple, *, count: bool = True) -> DayResult | BatteryDayResult | None:
        """The cached result for ``key``, or None.

        A corrupt, truncated, or mismatched entry is deleted with a
        warning and reported as a miss — silently returning garbage is
        the one failure mode a result cache must not have.

        ``count=False`` suppresses the hit/miss bookkeeping; the lease
        follower path polls ``load`` in a loop and would otherwise book
        one logical lookup as dozens of misses.
        """
        path = self.path_for(key)
        tel = telemetry_hub.current()
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            if count:
                self.misses += 1
                if tel.enabled:
                    tel.count("cache.disk_misses")
            return None
        try:
            entry = pickle.loads(raw)
            if entry["format"] != CACHE_FORMAT_VERSION:
                raise ValueError(f"cache format {entry['format']} != {CACHE_FORMAT_VERSION}")
            if entry["fingerprint"] != self.fingerprint:
                raise ValueError("code fingerprint mismatch")
            if entry["key"] != key:
                raise ValueError("stored key does not match its address")
            result = entry["result"]
        except Exception as exc:  # noqa: BLE001 — any decode failure recomputes
            log.warning(
                "corrupt disk-cache entry %s (%s: %s); deleting and recomputing",
                path, type(exc).__name__, exc,
            )
            try:
                path.unlink()
            except OSError as unlink_exc:
                log.warning(
                    "could not delete corrupt cache entry %s: %s", path, unlink_exc
                )
            if count:
                self.misses += 1
                if tel.enabled:
                    tel.count("cache.disk_misses")
            return None
        if count:
            self.hits += 1
            if tel.enabled:
                tel.count("cache.disk_hits")
        return result

    def store(self, key: tuple, result: DayResult | BatteryDayResult) -> Path:
        """Atomically persist ``result`` under ``key``; returns the path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        payload = pickle.dumps(
            {
                "format": CACHE_FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "key": key,
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError as exc:
                log.warning(
                    "could not clean up cache temp file %s: %s", tmp, exc
                )
            raise
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("cache.disk_stores")
        return path

    # -- cross-process compute leases ----------------------------------
    def lease_path_for(self, key: tuple) -> Path:
        """The lease file guarding ``key``'s compute (beside the entry)."""
        return self.path_for(key).with_suffix(".lease")

    def lease_age_s(self, key: tuple) -> float | None:
        """Seconds since the lease's last heartbeat, or None if no lease."""
        try:
            return max(0.0, time.time() - self.lease_path_for(key).stat().st_mtime)
        except OSError:
            return None

    def try_lease(self, key: tuple, *, stale_after_s: float = 30.0) -> CacheLease | None:
        """Try to become the one process computing ``key``.

        Returns a :class:`CacheLease` on success, None when another live
        process holds the lease (the caller should follow: poll
        :meth:`load` until the result lands or the lease goes stale).

        The protocol, in order of preference:

        1. ``O_EXCL``-create the lease file — atomic on POSIX, so exactly
           one of N racing processes wins a fresh election.
        2. If it exists but its mtime (the heartbeat) is older than
           ``stale_after_s``, take it over: atomically ``os.replace`` a
           claim file onto it, then *read back* the token.  Replace is
           last-writer-wins, so the read-back is what decides the
           election — every taker but one sees a foreign token and loses.

        Worst case under pathological timing (owner stalls longer than
        ``stale_after_s`` then resumes) is two processes computing the
        same deterministic entry and racing atomic stores of identical
        bytes — duplicated work, never corruption.
        """
        path = self.lease_path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        token = f"{os.getpid()}-{random.getrandbits(64):016x}"
        payload = json.dumps(
            {"pid": os.getpid(), "token": token, "created": time.time()}
        ).encode()
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                return None  # vanished: owner just released; caller re-polls
            if age <= stale_after_s:
                return None
            log.warning(
                "cache lease %s is stale (%.1fs > %.1fs); taking over",
                path.name, age, stale_after_s,
            )
            claim_fd, claim = tempfile.mkstemp(dir=self.root, suffix=".lease-claim")
            try:
                with os.fdopen(claim_fd, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(claim, path)
            except BaseException:
                try:
                    os.unlink(claim)
                except OSError:
                    pass
                raise
            lease = CacheLease(path=path, token=token)
            return lease if lease.owned() else None
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        return CacheLease(path=path, token=token)

    def load_or_compute(
        self,
        key: tuple,
        compute,
        *,
        stale_after_s: float = 30.0,
        heartbeat_s: float | None = None,
        poll_s: float = 0.05,
    ):
        """Cross-process-deduplicated compute: ``(result, computed_by_us)``.

        Exactly one process per cache directory computes ``key`` at a
        time; everyone else waits on the lease and reads the stored
        result.  A leader that dies mid-compute (``kill -9``) stops
        heartbeating, its lease goes stale after ``stale_after_s``, and a
        follower is re-elected — no key can wedge forever.

        The caller is expected to have tried :meth:`load` already;
        internal polling loads use ``count=False`` so one logical lookup
        does not inflate the hit/miss counters.
        """
        if heartbeat_s is None:
            heartbeat_s = max(stale_after_s / 3.0, 0.01)
        while True:
            lease = self.try_lease(key, stale_after_s=stale_after_s)
            if lease is not None:
                try:
                    # A racer may have stored between our load miss and
                    # our election — serve its result instead of recomputing.
                    result = self.load(key, count=False)
                    if result is not None:
                        return result, False
                    with lease.heartbeats(heartbeat_s):
                        result = compute()
                        self.store(key, result)
                    return result, True
                finally:
                    lease.release()
            # Follower: wait for the leader's store, re-elect if it dies.
            while True:
                result = self.load(key, count=False)
                if result is not None:
                    return result, False
                age = self.lease_age_s(key)
                if age is None or age > stale_after_s:
                    break  # lease released or gone stale: re-elect
                time.sleep(poll_s)

    def stats(self) -> dict[str, float]:
        """``hits`` / ``misses`` counters for this cache handle."""
        return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# Process-pool fan-out
# ----------------------------------------------------------------------
def _chunk_by_cell(tasks: list[SweepTask]) -> list[list[SweepTask]]:
    """Group tasks by (location, month) cell, preserving order."""
    groups: dict[tuple[str, int], list[SweepTask]] = {}
    for task in tasks:
        groups.setdefault(task.cell, []).append(task)
    return list(groups.values())


def _worker_chunk(
    tasks: list[SweepTask],
    config: SolarCoreConfig,
    collect_telemetry: bool,
    collect_profile: bool = False,
) -> tuple[list, dict | None]:
    """Run one chunk inside a worker process.

    The worker always detaches from any inherited parent hub (sinks must
    not receive events from forked children); with ``collect_telemetry``
    each task runs under its own private hub and the snapshots of the
    tasks that *succeeded* are folded into one chunk snapshot that rides
    back with the results.  ``collect_profile`` additionally arms the
    private hubs' profile, so per-phase timers and per-day profiles ride
    home inside the same snapshot.

    Per-task hubs (not one hub per chunk) are what make retry metrics
    exact: a task that fails after partial work ships *nothing* — its
    metrics would otherwise be merged once from the failed attempt and
    again from the retry that recomputes it.

    Each task yields an independent ``("ok", result)`` or
    ``("err", "TypeName: message")`` outcome: one bad cell no longer
    poisons its whole chunk — the parent decides whether to retry,
    salvage, or raise.
    """
    telemetry_hub.set_telemetry(None)
    collect = collect_telemetry or collect_profile
    chunk_hub = Telemetry(profile=collect_profile) if collect else None
    try:
        outcomes = []
        for task in tasks:
            task_hub = None
            if collect:
                task_hub = Telemetry(profile=collect_profile)
                telemetry_hub.set_telemetry(task_hub)
            try:
                result = compute_task(task, config)
            except Exception as exc:
                outcomes.append(("err", f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(("ok", result))
                if chunk_hub is not None:
                    chunk_hub.merge_snapshot(task_hub.snapshot())
            finally:
                if collect:
                    telemetry_hub.set_telemetry(None)
        snapshot = chunk_hub.snapshot() if chunk_hub is not None else None
        return outcomes, snapshot
    finally:
        telemetry_hub.set_telemetry(None)


def _backoff_sleep(wave: int, retry_base_s: float, n_failed: int, tel) -> None:
    """Exponential backoff with deterministic jitter before retry ``wave``."""
    delay = retry_base_s * (2 ** (wave - 1))
    delay += random.Random(wave).uniform(0.0, retry_base_s)
    if tel.enabled:
        tel.count("sweep.retries", n_failed)
    log.warning(
        "sweep retry wave %d: %d task(s) failed, backing off %.2fs",
        wave, n_failed, delay,
    )
    if delay > 0:
        time.sleep(delay)


def _finish_sweep(
    results, snapshots, unique, pending, errors, attempts, salvage, tel, parallel,
):
    """Common tail of :func:`run_parallel` / :func:`run_serial`: salvage
    (structured report) or raise (first failure)."""
    failures = [
        TaskFailure(
            task=task,
            error=errors[task][0],
            attempts=attempts[task],
            timed_out=errors[task][1],
        )
        for task in pending
    ]
    timeouts = sum(1 for failure in failures if failure.timed_out)
    if timeouts and tel.enabled:
        tel.count("sweep.timeouts", timeouts)
    if salvage:
        report = SweepFailureReport(
            failures=failures, completed=len(results), attempted=len(unique)
        )
        if failures:
            if tel.enabled:
                tel.count("sweep.salvaged_failures", len(failures))
            log.warning(report.summary())
        if parallel:
            return results, snapshots, report
        return results, report
    if failures:
        first = failures[0]
        where = "in worker" if parallel else "serially"
        raise SweepError(
            f"sweep task failed {where}: {first.task.describe()}: {first.error}"
        )
    if parallel:
        return results, snapshots
    return results


def _run_wave(
    chunks, config, collect_telemetry, collect_profile, workers, task_timeout, store,
):
    """Run one wave of chunks on a fresh pool; never raises per-task.

    A fresh :class:`ProcessPoolExecutor` per wave is deliberate: a worker
    that dies (segfault, ``os._exit``) breaks its pool permanently, so
    retry waves must not inherit it.  With ``task_timeout`` each chunk
    gets a ``task_timeout * len(chunk)`` deadline; an expired chunk is
    marked timed out and its worker abandoned (the pool is shut down
    without waiting — a hung simulation cannot hang the sweep).  Each
    successful result goes to ``store`` as soon as its chunk is
    collected, not when the wave ends.
    """
    outcomes: list[tuple[SweepTask, tuple[str, object, bool]]] = []
    snapshots: list[dict] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = False
    try:
        futures = {
            pool.submit(
                _worker_chunk, chunk, config, collect_telemetry, collect_profile
            ): chunk
            for chunk in chunks
        }
        deadlines: dict = {}
        if task_timeout is not None:
            start = time.monotonic()
            deadlines = {
                future: start + task_timeout * len(chunk)
                for future, chunk in futures.items()
            }
        not_done = set(futures)
        while not_done:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0,
                    min(deadlines[f] for f in not_done) - time.monotonic(),
                )
            done, not_done = wait(
                not_done, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                chunk = futures[future]
                try:
                    chunk_outcomes, snapshot = future.result()
                except Exception as exc:  # pool-level crash (BrokenProcessPool)
                    message = f"{type(exc).__name__}: {exc}"
                    for task in chunk:
                        outcomes.append((task, ("err", message, False)))
                    continue
                for task, (status, payload) in zip(chunk, chunk_outcomes):
                    outcomes.append((task, (status, payload, False)))
                    if status == "ok" and store is not None:
                        store(task, payload)
                if snapshot is not None:
                    snapshots.append(snapshot)
            if not done and deadlines:
                now = time.monotonic()
                expired = {f for f in not_done if now >= deadlines[f]}
                for future in expired:
                    chunk = futures[future]
                    future.cancel()
                    message = (
                        f"timed out after {task_timeout * len(chunk):.1f}s "
                        f"({len(chunk)} task(s) x {task_timeout:.1f}s)"
                    )
                    for task in chunk:
                        outcomes.append((task, ("err", message, True)))
                if expired:
                    abandoned = True
                not_done -= expired
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return outcomes, snapshots


def run_parallel(
    tasks: list[SweepTask],
    config: SolarCoreConfig,
    jobs: int,
    collect_telemetry: bool = False,
    collect_profile: bool = False,
    *,
    retries: int = 0,
    retry_base_s: float = 0.1,
    task_timeout: float | None = None,
    salvage: bool = False,
    store=None,
):
    """Fan ``tasks`` out over a process pool, chunked by (location, month).

    Resilience semantics: the first wave runs cell chunks; tasks that
    fail (raise, crash their worker, or exceed the timeout) are retried
    in up to ``retries`` further waves as single-task chunks on a fresh
    pool, after exponential backoff.  Tasks still failed after the last
    wave either abort the sweep (``salvage=False``, the historical
    behavior) or are reported in a :class:`SweepFailureReport` alongside
    every completed result (``salvage=True``).

    Args:
        tasks: Grid cells to simulate (duplicates are computed once).
        config: Simulation configuration shared by every task.
        jobs: Worker processes (capped at the number of chunks).
        collect_telemetry: Ship per-worker telemetry snapshots back.
        collect_profile: Arm the per-worker hot-path profile; its phase
            timers and day profiles ride back inside the telemetry
            snapshot (the parent merges it via
            ``Telemetry.merge_snapshot``).
        retries: Retry waves for failed tasks (0 = at most one attempt).
        retry_base_s: Backoff base: wave ``n`` sleeps
            ``retry_base_s * 2**(n-1)`` plus deterministic jitter.
        task_timeout: Per-task wall-clock budget [s]; a chunk's deadline
            is ``task_timeout * len(chunk)``.  None = no deadline.
        salvage: Return partial results plus a failure report instead of
            raising on the first permanently failed task.
        store: Optional ``store(task, result)`` hook, called in this
            process for every successful result as its chunk completes
            (the runner persists results through it, so a crash loses
            only the chunks still running).

    Returns:
        ``(results, snapshots)`` — or ``(results, snapshots, report)``
        when ``salvage`` is set.

    Raises:
        SweepError: A task failed every attempt (only without salvage);
            the message names its coordinates.
    """
    tel = telemetry_hub.current()
    unique = list(dict.fromkeys(tasks))
    results: dict[SweepTask, object] = {}
    pending = unique
    snapshots: list[dict] = []
    attempts = dict.fromkeys(pending, 0)
    errors: dict[SweepTask, tuple[str, bool]] = {}
    for wave in range(retries + 1):
        if not pending:
            break
        if wave == 0:
            chunks = _chunk_by_cell(pending)
            log.info(
                "parallel sweep: %d task(s) in %d cell chunk(s) over %d worker(s)",
                len(pending), len(chunks), max(1, min(jobs, len(chunks))),
            )
        else:
            _backoff_sleep(wave, retry_base_s, len(pending), tel)
            # Retry singly: a failed cell must not re-drag healthy
            # neighbors through another attempt.
            chunks = [[task] for task in pending]
        workers = max(1, min(jobs, len(chunks)))
        wave_outcomes, wave_snapshots = _run_wave(
            chunks, config, collect_telemetry, collect_profile, workers,
            task_timeout, store,
        )
        snapshots.extend(wave_snapshots)
        failed_now: list[SweepTask] = []
        for task, (status, payload, timed_out) in wave_outcomes:
            attempts[task] += 1
            if status == "ok":
                results[task] = payload
                errors.pop(task, None)
            else:
                errors[task] = (payload, timed_out)
                failed_now.append(task)
        pending = failed_now
    return _finish_sweep(
        results, snapshots, unique, pending, errors, attempts,
        salvage, tel, parallel=True,
    )


def run_serial(
    tasks: list[SweepTask],
    config: SolarCoreConfig,
    *,
    retries: int = 0,
    retry_base_s: float = 0.1,
    salvage: bool = False,
    store=None,
):
    """In-process sibling of :func:`run_parallel` (the ``jobs=1`` path).

    Same retry / salvage semantics, same :func:`compute_task` execution
    path, no worker pool; ``store`` sees each result as its task
    finishes.  Per-task timeouts need process isolation and therefore
    only exist in the parallel engine.

    Returns:
        ``results`` — or ``(results, report)`` when ``salvage`` is set.

    Raises:
        SweepError: A task failed every attempt (only without salvage).
    """
    tel = telemetry_hub.current()
    unique = list(dict.fromkeys(tasks))
    results: dict[SweepTask, object] = {}
    pending = unique
    attempts = dict.fromkeys(pending, 0)
    errors: dict[SweepTask, tuple[str, bool]] = {}
    for wave in range(retries + 1):
        if not pending:
            break
        if wave:
            _backoff_sleep(wave, retry_base_s, len(pending), tel)
        failed_now: list[SweepTask] = []
        for task in pending:
            attempts[task] += 1
            try:
                result = compute_task(task, config)
            except Exception as exc:
                errors[task] = (f"{type(exc).__name__}: {exc}", False)
                failed_now.append(task)
                continue
            results[task] = result
            errors.pop(task, None)
            if store is not None:
                store(task, result)
        pending = failed_now
    return _finish_sweep(
        results, [], unique, pending, errors, attempts,
        salvage, tel, parallel=False,
    )


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
def grid_tasks(
    mixes,
    locations,
    months,
    policies=("MPPT&Opt",),
    budgets_w=(),
    deratings=(),
    seeds=(None,),
    faults=None,
) -> list[SweepTask]:
    """The task list for a (location x month x mix x policy) grid.

    ``budgets_w`` adds a Fixed-Power task per budget and ``deratings`` a
    battery task per factor, for the same (location, month, mix) cells;
    ``seeds`` multiplies the grid by weather realization.

    Args:
        mixes: Mix names.
        locations: Stations, as codes or :class:`Location` objects.
        months: Calendar months.
        policies: MPPT policies swept.
        budgets_w: Fixed-Power thresholds swept [W].
        deratings: Battery de-rating factors swept.
        seeds: Weather seeds (None = the standard seeded trace).
        faults: Fault-schedule spec string applied to every cell (None =
            fault-free grid).

    Returns:
        One :class:`SweepTask` per grid cell, ordered by (location, month)
        so chunking keeps cells together.
    """
    codes = [
        loc.code if isinstance(loc, Location) else location_by_code(loc).code
        for loc in locations
    ]
    tasks = []
    for code in codes:
        for month in months:
            for seed in seeds:
                for mix_name in mixes:
                    for policy in policies:
                        tasks.append(SweepTask(
                            "mppt", mix_name, code, month,
                            policy=policy, seed=seed, faults=faults,
                        ))
                    for budget in budgets_w:
                        tasks.append(SweepTask(
                            "fixed", mix_name, code, month,
                            budget_w=budget, seed=seed, faults=faults,
                        ))
                    for derating in deratings:
                        tasks.append(SweepTask(
                            "battery", mix_name, code, month,
                            derating=derating, seed=seed, faults=faults,
                        ))
    return tasks
