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
* :func:`run_parallel` — the one sweep loop: retry waves, backoff,
  timeouts and the caller's ``store`` hook, run in-process (``jobs=1``)
  or as a ``ProcessPoolExecutor`` fan-out chunked by (location, month)
  cell so each worker amortizes its per-cell state.  Workers run under
  the null telemetry hub (no sinks of the parent leak into children);
  when the parent's hub is enabled each worker instead collects into a
  private hub and ships its snapshot (counters, histogram buckets,
  timers) back, merged into the parent's hub as the chunk lands.
  Results reach ``store`` in the parent as they land, so a crash
  mid-sweep loses only the chunks still running.

Determinism is a hard requirement: identical seeds yield byte-identical
:class:`~repro.core.simulation.DayResult` arrays whether computed serially,
in parallel, or read back from disk — enforced by the golden tests in
``tests/harness/test_parallel.py``.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import os
import pickle
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from repro.atomicio import remove_orphaned_temps, write_atomic
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
    "DiskResultCache",
    "CacheLease",
    "compute_task",
    "run_parallel",
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

#: The policy every non-``mppt`` task carries.
_DEFAULT_POLICY = "MPPT&Opt"


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

    Two tasks are equal exactly when they share a :meth:`cache_key`:
    construction rejects a field the kind does not simulate (a budget on
    an ``mppt`` task, say), so no ignored field can tell equal work apart.

    Attributes:
        kind: ``mppt`` (policy day), ``fixed`` (Fixed-Power baseline), or
            ``battery`` (battery-equipped baseline).
        mix_name: Table 5 workload mix.
        location_code: Station code (canonical, e.g. ``AZ``).
        month: Calendar month.
        policy: Load-adaptation policy (``mppt`` tasks; other kinds keep
            the default).
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
    policy: str = _DEFAULT_POLICY
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
        if self.kind != "fixed" and self.budget_w is not None:
            raise ValueError(f"budget_w applies only to fixed tasks, not {self.kind}")
        if self.kind != "battery" and self.derating is not None:
            raise ValueError(f"derating applies only to battery tasks, not {self.kind}")
        if self.kind != "mppt" and self.policy != _DEFAULT_POLICY:
            raise ValueError(f"policy applies only to mppt tasks, not {self.kind}")
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
    """Sweep tasks failed every attempt; the message lists each one.

    Attributes:
        failures: ``{task: (error, attempts, timed_out)}`` in submission
            order — the last ``TypeName: message`` (or timeout
            description), how many times the task was tried, and whether
            the last failure was a per-task timeout.
    """

    def __init__(self, failures: dict[SweepTask, tuple[str, int, bool]]) -> None:
        self.failures = failures
        lines = [f"{len(failures)} sweep task(s) failed every attempt:"]
        for task, (error, attempts, timed_out) in failures.items():
            flavor = "timed out" if timed_out else "failed"
            lines.append(
                f"  - {task.describe()}: {flavor} after {attempts} "
                f"attempt(s): {error}"
            )
        super().__init__("\n".join(lines))


def compute_task(
    task: SweepTask, config: SolarCoreConfig
) -> DayResult | BatteryDayResult:
    """Run one task — the single execution path shared by in-process
    sweeps, single runner misses and every worker process, so all of them
    compute identical results.

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
class CacheLease:
    """Ownership of one key's compute: an exclusive ``flock`` on the key's
    ``.lease`` file, held through the open descriptor ``fd``.

    The kernel drops the lock when its holder dies, however it dies, so a
    dead owner's key is free at once.  :meth:`release` unlinks the file
    while still holding the lock and then closes it: no lock file is ever
    unlinked from under its holder, and a copy of ``fd`` inherited by a
    forked child locks only the unlinked file, never a later taker's.
    """

    def __init__(self, path: Path, fd: int) -> None:
        self.path = path
        self.fd: int | None = fd

    def release(self) -> None:
        """Drop the lease (idempotent, never raises)."""
        if self.fd is None:
            return
        try:
            self.path.unlink()
        except OSError:
            pass
        os.close(self.fd)
        self.fd = None


class DiskResultCache:
    """Content-addressed on-disk cache of day-simulation results.

    Entries live as ``<sha256>.pkl`` files under ``root``; the digest
    covers the cache format version, the code fingerprint, and the full
    task key, so a changed codebase or config addresses different files.
    Writes are atomic (same-directory temp file + ``os.replace``), safe
    under concurrent writers — the worst case is two processes computing
    the same entry, and last-write-wins of identical bytes.  Opening the
    cache removes temp files that writers killed mid-write left behind
    (:func:`~repro.atomicio.remove_orphaned_temps`).

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
        remove_orphaned_temps(self.root, ("tmp*.tmp",))

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
        write_atomic(path, payload)
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("cache.disk_stores")
        return path

    # -- cross-process compute leases ----------------------------------
    def lease_path_for(self, key: tuple) -> Path:
        """The lease file guarding ``key``'s compute (beside the entry)."""
        return self.path_for(key).with_suffix(".lease")

    def try_lease(self, key: tuple) -> CacheLease | None:
        """Try to become the one process computing ``key``.

        Returns a :class:`CacheLease` on success, None while another
        holder has the key (the caller follows: it polls :meth:`load`
        and tries again).  The lease is an exclusive, non-blocking
        ``flock`` on the key's ``.lease`` file, one lock per open file,
        so two threads of one process exclude each other as two
        processes do.  The lock is kept only if the locked file is still
        the one at the path: a taker that opened the file just before
        its holder's release unlinked it would otherwise lock a file no
        later taker can see, so it closes that one and tries again.
        """
        path = self.lease_path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(path)):
                    return CacheLease(path, fd)
            except BlockingIOError:
                os.close(fd)
                return None
            except FileNotFoundError:
                pass
            except BaseException:
                os.close(fd)
                raise
            # The file we locked was released and unlinked after we opened it.
            os.close(fd)

    def load_or_compute(self, key: tuple, compute, *, poll_s: float = 0.05):
        """Cross-process-deduplicated compute: ``(result, computed_by_us)``.

        Exactly one holder of the key's lease computes it at a time;
        everyone else polls :meth:`load` for the stored result and
        retries the lease, so a leader that dies mid-compute
        (``kill -9``) is replaced by the next follower to poll.

        The caller is expected to have tried :meth:`load` already;
        internal polling loads use ``count=False`` so one logical lookup
        does not inflate the hit/miss counters.
        """
        while True:
            lease = self.try_lease(key)
            if lease is not None:
                try:
                    # A racer may have stored between our load miss and
                    # our election — serve its result instead of recomputing.
                    result = self.load(key, count=False)
                    if result is not None:
                        return result, False
                    result = compute()
                    self.store(key, result)
                    return result, True
                finally:
                    lease.release()
            result = self.load(key, count=False)
            if result is not None:
                return result, False
            time.sleep(poll_s)

    def stats(self) -> dict[str, float]:
        """``hits`` / ``misses`` counters for this cache handle."""
        return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# The sweep loop
# ----------------------------------------------------------------------
#: Backoff base [s]: retry wave ``n`` sleeps ``RETRY_BASE_S * 2**(n-1)``
#: plus deterministic jitter of up to ``RETRY_BASE_S``.
RETRY_BASE_S = 0.1


def _chunk_by_cell(tasks: list[SweepTask]) -> list[list[SweepTask]]:
    """Group tasks by (location, month) cell, preserving order."""
    groups: dict[tuple[str, int], list[SweepTask]] = {}
    for task in tasks:
        groups.setdefault(task.cell, []).append(task)
    return list(groups.values())


def _attempt(task: SweepTask, config: SolarCoreConfig) -> tuple[object, str | None]:
    """One try of ``task``: ``(result, None)`` or ``(None, "TypeName: message")``."""
    try:
        return compute_task(task, config), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _worker_chunk(
    tasks: list[SweepTask], config: SolarCoreConfig, collect: bool, profile: bool,
) -> tuple[list, dict | None]:
    """Run one chunk inside a worker process.

    The worker always detaches from any inherited parent hub (sinks must
    not receive events from forked children); with ``collect`` each task
    runs under its own private hub (profiled when ``profile`` is set) and
    the snapshots of the tasks that *succeeded* are folded into one chunk
    snapshot that rides back with the outcomes.

    Per-task hubs (not one hub per chunk) are what make retry metrics
    exact: a task that fails after partial work ships *nothing* — its
    metrics would otherwise be merged once from the failed attempt and
    again from the retry that recomputes it.
    """
    telemetry_hub.set_telemetry(None)
    chunk_hub = Telemetry(profile=profile) if collect else None
    try:
        outcomes = []
        for task in tasks:
            if chunk_hub is not None:
                task_hub = Telemetry(profile=profile)
                telemetry_hub.set_telemetry(task_hub)
            try:
                outcome = _attempt(task, config)
            finally:
                telemetry_hub.set_telemetry(None)
            outcomes.append(outcome)
            if chunk_hub is not None and outcome[1] is None:
                chunk_hub.merge_snapshot(task_hub.snapshot())
        return outcomes, chunk_hub.snapshot() if chunk_hub is not None else None
    finally:
        telemetry_hub.set_telemetry(None)


def _pooled_wave(chunks, config, workers, task_timeout, tel):
    """Run one wave of chunks on a fresh process pool; never raises per task.

    Yields ``(task, result, error, timed_out)`` for every task of a chunk
    as soon as the chunk lands, after merging the chunk's telemetry
    snapshot into ``tel``.  A fresh :class:`ProcessPoolExecutor` per
    wave is deliberate: a worker that dies (segfault, ``os._exit``)
    breaks its pool permanently, so retry waves must not inherit it.
    With ``task_timeout`` each chunk gets a ``task_timeout * len(chunk)``
    deadline; an expired chunk is marked timed out and its worker
    abandoned (the pool is shut down without waiting — a hung simulation
    cannot hang the sweep).
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = False
    try:
        futures = {
            pool.submit(_worker_chunk, chunk, config, tel.enabled, tel.profiling): chunk
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
                    outcomes, snapshot = future.result()
                except Exception as exc:  # pool-level crash (BrokenProcessPool)
                    outcomes = [(None, f"{type(exc).__name__}: {exc}")] * len(chunk)
                    snapshot = None
                if snapshot is not None:
                    tel.merge_snapshot(snapshot)
                for task, (result, error) in zip(chunk, outcomes):
                    yield task, result, error, False
            if not done and deadlines:
                now = time.monotonic()
                expired = [f for f in not_done if now >= deadlines[f]]
                not_done -= set(expired)
                abandoned = abandoned or bool(expired)
                for future in expired:
                    chunk = futures[future]
                    future.cancel()
                    error = (
                        f"timed out after {task_timeout * len(chunk):.1f}s "
                        f"({len(chunk)} task(s) x {task_timeout:.1f}s)"
                    )
                    for task in chunk:
                        yield task, None, error, True
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=abandoned)


def _backoff_sleep(wave: int, n_failed: int, tel) -> None:
    """Exponential backoff with deterministic jitter before retry ``wave``."""
    delay = RETRY_BASE_S * (2 ** (wave - 1))
    delay += random.Random(wave).uniform(0.0, RETRY_BASE_S)
    if tel.enabled:
        tel.count("sweep.retries", n_failed)
    log.warning(
        "sweep retry wave %d: %d task(s) failed, backing off %.2fs",
        wave, n_failed, delay,
    )
    if delay > 0:
        time.sleep(delay)


def run_parallel(
    tasks: list[SweepTask],
    config: SolarCoreConfig,
    jobs: int,
    *,
    retries: int = 0,
    task_timeout: float | None = None,
    store=None,
) -> dict[SweepTask, DayResult | BatteryDayResult]:
    """Compute ``tasks``: in this process (``jobs=1``) or over a pool.

    The first wave runs (location, month) cell chunks; tasks that fail
    (raise, crash their worker, or exceed the timeout) are retried in up
    to ``retries`` further waves as single-task chunks, after
    exponential backoff.  ``jobs > 1`` runs every wave on a fresh process
    pool; ``jobs=1`` runs it in this process under the caller's hub.

    Telemetry follows the current hub: pooled workers collect only when
    it is enabled (profiled when it profiles), and each chunk's snapshot
    is merged into it as the chunk lands.

    Args:
        tasks: Grid cells to simulate (duplicates are computed once).
        config: Simulation configuration shared by every task.
        jobs: Worker processes (capped at the number of chunks); 1 runs
            in-process.
        retries: Retry waves for failed tasks (0 = at most one attempt).
        task_timeout: Per-task wall-clock budget [s]; a chunk's deadline
            is ``task_timeout * len(chunk)``.  Needs ``jobs >= 2``: only
            a worker process can be abandoned when it hangs.
        store: Optional ``store(task, result)`` hook, called in this
            process for every successful result as it lands (the runner
            persists results through it, so a crash loses only the
            chunks still running).

    Returns:
        Every task's result.

    Raises:
        ValueError: ``jobs < 1``, or ``task_timeout`` with ``jobs == 1``.
        SweepError: Some tasks failed every attempt; raised after every
            other task reached ``store``, it lists each failed task.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if task_timeout is not None and jobs < 2:
        raise ValueError(
            "task_timeout needs jobs >= 2: only a worker process can be "
            "abandoned when a task hangs"
        )
    tel = telemetry_hub.current()
    pending = list(dict.fromkeys(tasks))
    results: dict[SweepTask, object] = {}
    attempts = dict.fromkeys(pending, 0)
    failures: dict[SweepTask, tuple[str, bool]] = {}
    for wave in range(retries + 1):
        if not pending:
            break
        if wave == 0:
            chunks = _chunk_by_cell(pending)
        else:
            _backoff_sleep(wave, len(pending), tel)
            # Retry singly: a failed cell must not re-drag healthy
            # neighbors through another attempt.
            chunks = [[task] for task in pending]
        workers = min(jobs, len(chunks))
        log.info(
            "sweep wave %d: %d task(s) in %d chunk(s) over %d worker(s)",
            wave, len(pending), len(chunks), workers,
        )
        if jobs > 1:
            outcomes = _pooled_wave(chunks, config, workers, task_timeout, tel)
        else:  # in-process, under the caller's hub: its sinks see every event
            outcomes = (
                (task, *_attempt(task, config), False)
                for chunk in chunks for task in chunk
            )
        # closing(): a raising store hook still shuts the wave's pool down.
        with closing(outcomes):
            for task, result, error, timed_out in outcomes:
                attempts[task] += 1
                if error is None:
                    results[task] = result
                    failures.pop(task, None)
                    if store is not None:
                        store(task, result)
                else:
                    failures[task] = (error, timed_out)
        pending = [task for task in pending if task in failures]
    if pending:
        timeouts = sum(failures[task][1] for task in pending)
        if timeouts and tel.enabled:
            tel.count("sweep.timeouts", timeouts)
        raise SweepError({
            task: (failures[task][0], attempts[task], failures[task][1])
            for task in pending
        })
    return results


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
