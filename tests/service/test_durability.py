"""Chaos proofs for the durable service.

The durability claims are about *processes dying*, so the core tests here
run real ``repro serve`` subprocesses and ``kill -9`` them mid-job:

* an acknowledged submission survives SIGKILL — the restarted server
  replays the journal, re-enqueues the interrupted job, and finishes it
  without recomputing work the dead process already cached;
* two server processes sharing one cache directory compute a shared key
  exactly once (the cross-process lease, observed end-to-end);
* overload, deadlines, and drain are exercised in-process where the
  :class:`GatedCompute` fixture makes the timing deterministic.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, ServiceError
from tests.service.conftest import run_async

SRC = Path(__file__).resolve().parents[2] / "src"

#: The one small cell the chaos test acknowledges as done before the kill.
SMALL = {"mix": "HM2", "site": "AZ", "month": 7}
#: A job wide enough (~32 distinct cells) that SIGKILL lands mid-flight.
#: It *contains* the small cell, so the restarted server can prove it
#: reuses the dead process's cached work instead of recomputing it.
WIDE = {"tasks": [SMALL] + [
    {"mix": "HM2", "site": "AZ", "month": month, "seed": seed}
    for month in (1, 4, 7, 10) for seed in range(8)
]}
WIDE_CELLS = 1 + 4 * 8


def _spawn_server(tmp_path, *extra) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve --port 0 ...``; returns (proc, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=tmp_path, env=env,
    )
    lines = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server died before announcing its port "
                f"(exit {proc.poll()}):\n{''.join(lines)}"
            )
        lines.append(line)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.stdout.close()
    proc.wait(timeout=30)


def test_sigkill_mid_job_loses_no_acknowledged_work(tmp_path):
    journal, cache = str(tmp_path / "journal"), str(tmp_path / "cache")
    flags = ("--journal-dir", journal, "--cache-dir", cache)
    proc, port = _spawn_server(tmp_path, *flags)
    try:
        async def before_the_crash():
            client = ServiceClient("127.0.0.1", port)
            done = await client.submit(SMALL, wait=True)
            assert done["state"] == "done"
            wide = await client.submit(WIDE)  # acknowledged: must survive
            while (await client.job(wide["job_id"]))["state"] == "queued":
                await asyncio.sleep(0.005)
            return done["job_id"], wide["job_id"]

        done_id, wide_id = run_async(before_the_crash(), timeout=120)
        os.kill(proc.pid, signal.SIGKILL)  # no drain, no goodbye
    finally:
        _kill(proc)

    proc2, port2 = _spawn_server(tmp_path, *flags)
    try:
        async def after_the_restart():
            client = ServiceClient("127.0.0.1", port2)
            jobs = {doc["job_id"]: doc for doc in await client.jobs()}
            # Zero lost acknowledged jobs: both replayed from the journal.
            assert done_id in jobs and wide_id in jobs
            assert jobs[done_id]["state"] == "done"
            final = await client.wait_terminal(wide_id)
            assert final["state"] == "done"
            return await client.stats()

        stats = run_async(after_the_restart(), timeout=120)
    finally:
        _kill(proc2)

    assert stats["recovery"]["jobs"] == 2
    assert stats["recovery"]["requeued"] == 1
    assert stats["recovery"]["failed"] == 0
    # No duplicate compute: every cell of the recovered job was either a
    # disk hit (work the dead process finished, including the small cell)
    # or computed exactly once here — and at least the acknowledged small
    # cell came from the cache rather than being recomputed.
    counters = stats["counters"]
    computes = counters.get("runner.computes", 0)
    disk_hits = counters.get("cache.disk_hits", 0)
    assert disk_hits >= 1
    assert computes + disk_hits == WIDE_CELLS
    assert computes <= WIDE_CELLS - 1


def test_recover_fail_policy_fails_interrupted_jobs(tmp_path):
    journal, cache = str(tmp_path / "journal"), str(tmp_path / "cache")
    proc, port = _spawn_server(
        tmp_path, "--journal-dir", journal, "--cache-dir", cache
    )
    try:
        async def submit_and_catch_running():
            client = ServiceClient("127.0.0.1", port)
            doc = await client.submit(WIDE)
            while (await client.job(doc["job_id"]))["state"] == "queued":
                await asyncio.sleep(0.005)
            return doc["job_id"]

        job_id = run_async(submit_and_catch_running(), timeout=120)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        _kill(proc)

    proc2, port2 = _spawn_server(
        tmp_path, "--journal-dir", journal, "--cache-dir", cache,
        "--recover", "fail",
    )
    try:
        async def check():
            client = ServiceClient("127.0.0.1", port2)
            doc = await client.job(job_id)
            assert doc["state"] == "failed"
            assert "interrupted by server crash" in doc["error"]
            stats = await client.stats()
            assert stats["recovery"]["failed"] == 1
            assert stats["recovery"]["requeued"] == 0

        run_async(check(), timeout=60)
    finally:
        _kill(proc2)


def test_two_servers_one_cache_dir_compute_a_shared_key_once(tmp_path):
    cache = str(tmp_path / "cache")
    spec = {"mix": "HM2", "site": "AZ", "month": 3}
    proc_a, port_a = _spawn_server(tmp_path, "--cache-dir", cache)
    proc_b = None
    try:
        proc_b, port_b = _spawn_server(tmp_path, "--cache-dir", cache)

        async def race():
            a = ServiceClient("127.0.0.1", port_a)
            b = ServiceClient("127.0.0.1", port_b)
            docs = await asyncio.gather(
                a.submit(spec, wait=True), b.submit(spec, wait=True)
            )
            assert [doc["state"] for doc in docs] == ["done", "done"]
            return await asyncio.gather(a.stats(), b.stats())

        stats_a, stats_b = run_async(race(), timeout=120)
    finally:
        _kill(proc_a)
        if proc_b is not None:
            _kill(proc_b)

    total = sum(
        s["counters"].get("runner.computes", 0) for s in (stats_a, stats_b)
    )
    # Two processes, one cache directory, one key: exactly one compute.
    # The loser either followed the lease or read the finished entry.
    assert total == 1
    reused = sum(
        s["counters"].get("runner.lease_follows", 0)
        + s["counters"].get("cache.disk_hits", 0)
        for s in (stats_a, stats_b)
    )
    assert reused >= 1


# ----------------------------------------------------------------------
# Overload, deadlines, drain — in-process, with deterministic timing
# ----------------------------------------------------------------------
def _cell(month: int) -> dict:
    return {"mix": "HM2", "site": "AZ", "month": month}


def test_overload_answers_429_with_retry_after(gated_compute, harness_factory):
    async def main():
        async with harness_factory(max_queue=2, max_workers=2) as h:
            a = await h.client.submit(_cell(1))
            b = await h.client.submit(_cell(2))
            with pytest.raises(ServiceError) as err:
                await h.client.submit(_cell(3))
            assert err.value.status == 429
            assert err.value.body["code"] == "overloaded"
            assert err.value.body["max_queue"] == 2
            assert err.value.body["live_jobs"] == 2
            assert err.value.retry_after_s is not None
            assert err.value.retry_after_s >= 1

            stats = await h.client.stats()
            assert stats["admission"]["live_jobs"] == 2  # bound held
            assert stats["admission"]["rejected_overload"] == 1

            # Load clearing reopens admission: no sticky overload.
            gated_compute.release()
            await h.client.wait_terminal(a["job_id"])
            await h.client.wait_terminal(b["job_id"])
            c = await h.client.submit(_cell(3))
            done = await h.client.wait_terminal(c["job_id"])
            assert done["state"] == "done"

    run_async(main())


def test_deadline_lands_in_a_terminal_state_with_a_hard_cancel(
    gated_compute, harness_factory
):
    async def main():
        async with harness_factory() as h:
            doc = await h.client.submit(
                {**_cell(1), "deadline_s": 0.15}, wait=True
            )
            assert doc["state"] == "deadline_exceeded"
            assert "deadline" in doc["error"]
            assert doc["deadline_s"] == 0.15
            stats = await h.client.stats()
            assert stats["jobs"]["deadline_exceeded"] == 1
            assert stats["coalesce"]["hard_cancels"] == 1
            gated_compute.release()

            # A met deadline is invisible: the job just finishes.
            ok = await h.client.submit(
                {**_cell(2), "deadline_s": 30.0}, wait=True
            )
            assert ok["state"] == "done"

    run_async(main())


def test_drain_journals_stragglers_fails_readiness_and_says_1001(
    gated_compute, harness_factory, tmp_path
):
    journal_dir = tmp_path / "journal"

    async def main():
        async with harness_factory(
            journal_dir=journal_dir, journal_fsync=False
        ) as h:
            job = await h.client.submit(_cell(1))
            while (await h.client.job(job["job_id"]))["state"] == "queued":
                await asyncio.sleep(0.005)
            ws = await h.client.ws(f"/ws/jobs/{job['job_id']}")

            report = await h.service.drain(timeout=0.1)
            assert report["interrupted"] == 1
            assert report["timed_out"] is True

            # Liveness stays green (do not kill a drainer), readiness fails.
            assert await h.client.healthz() == {"status": "ok"}
            with pytest.raises(ServiceError) as not_ready:
                await h.client.readyz()
            assert not_ready.value.status == 503

            # Admission is closed with an explicit "draining" envelope.
            with pytest.raises(ServiceError) as refused:
                await h.client.submit(_cell(2))
            assert refused.value.status == 503
            assert refused.value.body["code"] == "draining"
            stats = await h.client.stats()
            assert stats["admission"]["rejected_draining"] == 1

            # The subscriber was told to go away, not just dropped.
            await ws.drain_until_closed()
            assert ws.close_code == 1001
            assert "draining" in ws.close_reason

            # The straggler kept its journaled interrupted state.
            doc = await h.client.job(job["job_id"])
            assert doc["state"] == "interrupted"
            gated_compute.release()

        # A successor process recovers the interrupted job and runs it.
        async with harness_factory(
            journal_dir=journal_dir, journal_fsync=False
        ) as successor:
            final = await successor.client.wait_terminal(job["job_id"])
            assert final["state"] == "done"
            stats = await successor.client.stats()
            assert stats["recovery"]["requeued"] == 1

    run_async(main(), timeout=60)


def test_drain_with_no_work_is_quick_and_idempotent(harness_factory):
    async def main():
        async with harness_factory() as h:
            t0 = time.perf_counter()
            report = await h.service.drain(timeout=5.0)
            assert time.perf_counter() - t0 < 1.0  # no jobs: no waiting
            assert report["drained"] == 0
            assert report["interrupted"] == 0
            assert report["timed_out"] is False
            assert await h.service.drain() is report  # idempotent

    run_async(main())
