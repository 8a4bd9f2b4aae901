"""Concurrent writers against one ``DiskResultCache`` key.

The cache's documented contract is that its atomic tempfile +
``os.replace`` protocol is safe under concurrent writers: the worst case
is two processes computing the same entry and last-write-wins of
identical bytes.  The service leans on this (N servers may share one
cache directory), so the claim gets a real two-process race, not a
comment.
"""

from __future__ import annotations

import fcntl
import logging
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro.atomicio import ORPHAN_AGE_S
from repro.harness.parallel import DiskResultCache, SweepTask
from repro.harness.runner import SimulationRunner

KEY = ("mppt", "HM2", "PFCI", 7, "MPPT&Opt", None, None)


@dataclass(frozen=True)
class Payload:
    """Small picklable stand-in for a day result."""

    writer: str
    value: float = 42.0


def _race_store(root, name, barrier, errors):
    try:
        cache = DiskResultCache(root, fingerprint="race-test")
        payload = Payload(writer=name)
        barrier.wait(timeout=30)
        # Both processes hit os.replace on the same destination at the
        # same moment, many times over to widen the window.
        for _ in range(50):
            cache.store(KEY, payload)
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        errors.put(f"{name}: {type(exc).__name__}: {exc}")


def _race_store_vs_load(root, name, barrier, errors):
    try:
        cache = DiskResultCache(root, fingerprint="race-test")
        payload = Payload(writer=name)
        barrier.wait(timeout=30)
        for _ in range(50):
            cache.store(KEY, payload)
            loaded = cache.load(KEY)
            # A reader may observe either writer's entry but never a
            # torn or half-written one.
            if loaded is not None and not isinstance(loaded, Payload):
                errors.put(f"{name}: read garbage {loaded!r}")
    except BaseException as exc:  # noqa: BLE001
        errors.put(f"{name}: {type(exc).__name__}: {exc}")


def _run_pair(target, tmp_path):
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    errors = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(str(tmp_path), name, barrier, errors))
        for name in ("alpha", "beta")
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0, f"racer died with exit code {p.exitcode}"
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, failures


def test_two_processes_racing_the_same_key_both_succeed(tmp_path):
    # Pre-create so the format-marker write is not part of the race.
    DiskResultCache(tmp_path, fingerprint="race-test")
    _run_pair(_race_store, tmp_path)

    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    result = cache.load(KEY)
    assert isinstance(result, Payload)
    assert result.writer in ("alpha", "beta")  # last write won, intact
    assert result.value == 42.0
    # No orphaned temp files: every mkstemp either replaced or unlinked.
    assert list(tmp_path.glob("*.tmp")) == []


def test_readers_racing_writers_never_see_torn_entries(tmp_path):
    DiskResultCache(tmp_path, fingerprint="race-test")
    _run_pair(_race_store_vs_load, tmp_path)
    assert list(tmp_path.glob("*.tmp")) == []


def test_interrupted_write_leaves_no_entry(tmp_path):
    # The single-process flavor of the same guarantee: a store that dies
    # mid-write (simulated via a pickling failure) leaves neither a
    # destination file nor a temp file behind.
    cache = DiskResultCache(tmp_path, fingerprint="race-test")

    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("simulated mid-write death")

    with pytest.raises(RuntimeError, match="mid-write"):
        cache.store(KEY, Unpicklable())
    assert cache.load(KEY) is None
    assert list(tmp_path.glob("*.tmp")) == []


def test_opening_the_cache_removes_only_old_write_temps(tmp_path, caplog):
    # A writer SIGKILLed between mkstemp and the rename leaves its
    # temp behind; the next open removes it once no live write can own it.
    DiskResultCache(tmp_path, fingerprint="race-test")
    then = time.time() - ORPHAN_AGE_S - 60
    for name in ("tmpa.tmp", "tmpc.tmp"):
        (tmp_path / name).write_bytes(b"partial")
    os.utime(tmp_path / "tmpa.tmp", (then, then))
    with caplog.at_level(logging.WARNING, logger="repro.atomicio"):
        DiskResultCache(tmp_path, fingerprint="race-test")
    assert sorted(p.name for p in tmp_path.glob("tmp*")) == ["tmpc.tmp"]
    assert "removed 1 orphaned temp file(s)" in caplog.text


def test_corrupt_entry_is_deleted_and_recomputed_not_served(tmp_path):
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    cache.store(KEY, Payload(writer="good"))
    path = cache.path_for(KEY)
    # Truncate to model a crash after replace on a non-journaling fs.
    path.write_bytes(path.read_bytes()[:10])
    assert cache.load(KEY) is None
    assert not path.exists()


def test_store_bytes_are_stable_for_identical_results(tmp_path):
    # "Last-write-wins of identical bytes": two writers with the same
    # result really do produce byte-identical entries.
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    cache.store(KEY, Payload(writer="same"))
    first = cache.path_for(KEY).read_bytes()
    cache.store(KEY, Payload(writer="same"))
    assert cache.path_for(KEY).read_bytes() == first


# ----------------------------------------------------------------------
# Cross-process compute leases
# ----------------------------------------------------------------------
def _lease_compute(root, name, barrier, errors, computes, compute_s):
    """One 'server process' racing load_or_compute on the shared key."""
    try:
        cache = DiskResultCache(root, fingerprint="race-test")

        def compute():
            with computes.get_lock():
                computes.value += 1
            time.sleep(compute_s)
            return Payload(writer=name)

        barrier.wait(timeout=30)
        result, _computed = cache.load_or_compute(KEY, compute, poll_s=0.01)
        if not isinstance(result, Payload):
            errors.put(f"{name}: read garbage {result!r}")
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        errors.put(f"{name}: {type(exc).__name__}: {exc}")


def test_lease_race_two_processes_compute_exactly_once(tmp_path):
    DiskResultCache(tmp_path, fingerprint="race-test")
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    errors = ctx.Queue()
    computes = ctx.Value("i", 0)
    procs = [
        ctx.Process(
            target=_lease_compute,
            args=(str(tmp_path), name, barrier, errors, computes, 0.3),
        )
        for name in ("alpha", "beta")
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0, f"racer died with exit code {p.exitcode}"
    failures = []
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, failures
    # The whole point: two processes, one compute.
    assert computes.value == 1
    # The winner released its lease and left no claim temp files.
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    assert not cache.lease_path_for(KEY).exists()
    assert list(tmp_path.glob("*.lease-claim")) == []


def _lease_and_hang(root, ready):
    """Take the lease, signal the parent, then hang until SIGKILLed."""
    cache = DiskResultCache(root, fingerprint="race-test")
    lease = cache.try_lease(KEY)
    assert lease is not None
    ready.set()
    time.sleep(300)


def _start_lease_owner(tmp_path):
    """A child process holding ``KEY``'s lease (and hanging)."""
    ctx = multiprocessing.get_context()
    ready = ctx.Event()
    owner = ctx.Process(target=_lease_and_hang, args=(str(tmp_path), ready))
    owner.start()
    assert ready.wait(timeout=30), "owner never took the lease"
    return owner


def _stop(owner) -> None:
    if owner.is_alive():
        owner.kill()
    owner.join(timeout=10)


def test_stale_lease_takeover_after_sigkilled_owner(tmp_path):
    DiskResultCache(tmp_path, fingerprint="race-test")
    owner = _start_lease_owner(tmp_path)
    try:
        os.kill(owner.pid, signal.SIGKILL)
        owner.join(timeout=30)

        cache = DiskResultCache(tmp_path, fingerprint="race-test")
        # The corpse's lease file is still there, but the kernel dropped
        # its lock with the process: a follower takes over at once.
        result, computed = cache.load_or_compute(
            KEY, lambda: Payload(writer="successor"), poll_s=0.01,
        )
        assert computed is True
        assert result.writer == "successor"
        assert not cache.lease_path_for(KEY).exists()
    finally:
        _stop(owner)


def test_dead_owner_lease_is_stale_at_once_live_owner_is_not(tmp_path):
    DiskResultCache(tmp_path, fingerprint="race-test")
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    owner = _start_lease_owner(tmp_path)
    try:
        # A live owner's lease holds, however long we would wait.
        assert cache.try_lease(KEY) is None
        os.kill(owner.pid, signal.SIGKILL)
        owner.join(timeout=30)
        start = time.monotonic()
        lease = cache.try_lease(KEY)
        assert lease is not None, "a dead owner's lease must be taken over"
        assert time.monotonic() - start < 1.0
        lease.release()
    finally:
        _stop(owner)


def _lease_killed_before_locking(root):
    """Open ``KEY``'s lease file and die by SIGKILL before locking it."""
    cache = DiskResultCache(root, fingerprint="race-test")
    fcntl.flock = lambda fd, operation: os.kill(os.getpid(), signal.SIGKILL)
    cache.try_lease(KEY)


def test_lease_torn_by_sigkill_mid_write_is_taken_over_at_once(tmp_path):
    """A process killed between creating the lease file and locking it
    leaves a file that no one holds, so a successor is elected at once."""
    DiskResultCache(tmp_path, fingerprint="race-test")
    ctx = multiprocessing.get_context()
    victim = ctx.Process(target=_lease_killed_before_locking, args=(str(tmp_path),))
    victim.start()
    victim.join(timeout=30)
    assert victim.exitcode == -signal.SIGKILL
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    assert cache.lease_path_for(KEY).exists()
    start = time.monotonic()
    lease = cache.try_lease(KEY)
    assert lease is not None, "a lease torn by its writer's death must not hold"
    assert time.monotonic() - start < 1.0
    lease.release()


def _lease_then_store(root, key, ready, go):
    """Lead ``key``'s compute: lease it, wait for ``go``, store, release."""
    cache = DiskResultCache(root)
    lease = cache.try_lease(key)
    assert lease is not None
    ready.set()
    assert go.wait(timeout=30)
    cache.store(key, Payload(writer="leader"))
    lease.release()


def test_runner_with_only_cache_dir_follows_a_fresh_lease(tmp_path, monkeypatch):
    """A runner built with just ``cache_dir=`` waits for another process's
    compute instead of duplicating it."""
    runner = SimulationRunner(cache_dir=tmp_path)
    task = SweepTask("mppt", "HM2", "AZ", 7)

    def no_compute(task, config):
        raise AssertionError("the follower must not compute")

    monkeypatch.setattr("repro.harness.runner.compute_task", no_compute)
    ctx = multiprocessing.get_context()
    ready, go = ctx.Event(), ctx.Event()
    leader = ctx.Process(
        target=_lease_then_store,
        args=(str(tmp_path), runner.cache_key(task), ready, go),
    )
    leader.start()
    try:
        assert ready.wait(timeout=30), "leader never took the lease"
        threading.Timer(0.3, go.set).start()
        result = runner.run_task(task)
        assert result.writer == "leader"
        assert runner.stats()["lease_follows"] == 1
        leader.join(timeout=30)
        assert leader.exitcode == 0
    finally:
        _stop(leader)


def test_heartbeat_keeps_slow_compute_leased(tmp_path):
    # A slow compute keeps its lease for as long as it runs: the lock
    # lasts while its holder lives, with nothing to refresh.
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    other = DiskResultCache(tmp_path, fingerprint="race-test")
    observed = []

    def slow_compute():
        # 1.2s of compute, with a rival trying for the lease every 0.3s.
        for _ in range(4):
            time.sleep(0.3)
            observed.append(other.try_lease(KEY))
        return Payload(writer="slow")

    result, computed = cache.load_or_compute(KEY, slow_compute)
    assert computed is True
    assert result.writer == "slow"
    # The rival never managed a takeover at any point during the compute.
    assert observed == [None, None, None, None]


def test_released_lease_is_immediately_reacquirable(tmp_path):
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    lease = cache.try_lease(KEY)
    assert lease is not None
    lease.release()
    second = cache.try_lease(KEY)
    assert second is not None
    second.release()


def test_two_threads_of_one_process_exclude_each_other(tmp_path):
    """The lock belongs to an open file, not to a process, so two compute
    threads of one server cannot both lead a key."""
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    held, done = threading.Event(), threading.Event()
    first = []

    def holder():
        first.append(cache.try_lease(KEY))
        held.set()
        assert done.wait(timeout=30)
        first[0].release()

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert held.wait(timeout=30)
        assert first[0] is not None
        assert cache.try_lease(KEY) is None
    finally:
        done.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    second = cache.try_lease(KEY)
    assert second is not None
    second.release()


def test_threads_racing_many_keys_compute_each_once(tmp_path):
    """More threads than cores churn take, release and re-take on a few
    keys; a second leader of any key would compute it twice."""
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    keys = [KEY[:-1] + (n,) for n in range(20)]
    computes = {key: 0 for key in keys}
    count_lock = threading.Lock()
    errors = []

    def compute_for(key):
        def compute():
            with count_lock:
                computes[key] += 1
            return Payload(writer=repr(key))
        return compute

    def racer(offset):
        try:
            for key in keys[offset:] + keys[:offset]:
                result, _ = cache.load_or_compute(key, compute_for(key), poll_s=0.001)
                assert result.writer == repr(key)
        except BaseException as exc:  # noqa: BLE001 — reported to the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert set(computes.values()) == {1}
    assert list(tmp_path.glob("*.lease")) == []


def test_taker_opening_before_a_release_locks_the_file_at_the_path(
    tmp_path, monkeypatch
):
    """A taker that opened the lease file just before its holder unlinked
    it must not keep a lock on the unlinked file, where later takers
    cannot see it."""
    cache = DiskResultCache(tmp_path, fingerprint="race-test")
    holder = cache.try_lease(KEY)
    assert holder is not None
    real_flock = fcntl.flock
    calls = []

    def release_holder_first(fd, operation):
        if not calls:
            holder.release()  # the taker has opened the file by now
        calls.append(fd)
        return real_flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", release_holder_first)
    taker = cache.try_lease(KEY)
    monkeypatch.setattr(fcntl, "flock", real_flock)
    assert len(calls) == 2, "the taker must retry on the file now at the path"
    assert taker is not None
    assert os.path.samestat(os.fstat(taker.fd), os.stat(taker.path))
    assert cache.try_lease(KEY) is None
    taker.release()
    assert not cache.lease_path_for(KEY).exists()
