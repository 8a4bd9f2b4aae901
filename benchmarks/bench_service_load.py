"""Service load benchmark: N concurrent clients against a live service.

Boots a real :class:`~repro.service.app.SolarCoreService` (real sockets,
real simulations at 15-minute cadence to keep a compute ~60 ms) and
drives it with ``SOLARCORE_SERVICE_CLIENTS`` concurrent HTTP clients
(default 8) in three phases:

1. **cold burst** — every client submits the *same* job at once against
   an empty cache: the coalescer must collapse N submissions into
   exactly one compute;
2. **distinct fill** — three different cells, one compute each;
3. **warm bursts** — the hot job again, repeatedly: every request must
   be served from the memory tier (zero computes) while we sample
   per-request latencies.

The JSON record keeps the deterministic compute/error counts as hard
``metrics`` (they are independent of the client count, so CI smoke runs
with a different N still share this baseline), wall-clock and latency
percentiles as warn-only ``timings_s``, and the N-dependent coalescing
ratios in ``extra``.

A second benchmark (``BENCH_service_durability``) measures the crash
story end to end: a real ``repro serve`` subprocess is SIGKILLed with
acknowledged jobs on the books, and the restarted server's journal
replay time and recovered-job counts are recorded.  Losing an
acknowledged job is a hard failure; replay time is a warn-only timing.
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

from benchjson import write_bench_json
from conftest import emit

from repro.core.config import SolarCoreConfig
from repro.service.app import SolarCoreService
from repro.service.client import ServiceClient

#: Concurrent clients (the benchmark's load knob; metrics stay N-independent).
CLIENTS = max(2, int(os.environ.get("SOLARCORE_SERVICE_CLIENTS", "8")))

#: Rounds of the warm phase; samples = CLIENTS * WARM_ROUNDS.
WARM_ROUNDS = 3

HOT_SPEC = {"mix": "HM2", "site": "AZ", "month": 7, "label": "hot"}
DISTINCT_SPECS = [
    {"mix": "HM1", "site": "AZ", "month": 1},
    {"mix": "H1", "site": "TN", "month": 7},
    {"mix": "L1", "site": "AZ", "month": 12},
]
#: Total computes the whole run may perform: the hot cell + the distinct ones.
EXPECTED_COMPUTES = 1 + len(DISTINCT_SPECS)

#: Coarse cadence: the full stack end to end, ~60 ms per uncached day.
CFG = SolarCoreConfig(step_minutes=15.0)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


async def _timed_submit(client: ServiceClient, spec: dict) -> float:
    start = time.perf_counter()
    doc = await client.submit(spec, wait=True)
    elapsed = time.perf_counter() - start
    assert doc["state"] == "done", doc
    return elapsed


async def _drive(tmp_cache: str) -> dict:
    service = SolarCoreService(CFG, cache_dir=tmp_cache, snapshot_interval_s=0)
    await service.start()
    clients = [ServiceClient(service.host, service.port) for _ in range(CLIENTS)]
    try:
        # Phase 1: cold burst — N identical submissions, one compute.
        start = time.perf_counter()
        await asyncio.gather(
            *(_timed_submit(c, HOT_SPEC) for c in clients)
        )
        cold_wall_s = time.perf_counter() - start
        stats = await clients[0].stats()
        cold_computes = stats["counters"]["runner.computes"]
        coalesced = stats["coalesce"]["coalesced"]
        assert cold_computes == 1, stats
        assert coalesced == CLIENTS - 1, stats

        # Phase 2: fill the cache with the distinct cells.
        for spec in DISTINCT_SPECS:
            await clients[0].submit(spec, wait=True)

        # Phase 3: warm bursts — memory-tier serving, latency samples.
        computes_before_warm = (await clients[0].stats())["counters"][
            "runner.computes"
        ]
        latencies: list[float] = []
        for _ in range(WARM_ROUNDS):
            latencies.extend(
                await asyncio.gather(
                    *(_timed_submit(c, HOT_SPEC) for c in clients)
                )
            )

        stats = await clients[0].stats()
        warm_computes = (
            stats["counters"]["runner.computes"] - computes_before_warm
        )
        warm_jobs = [
            j for j in await clients[0].jobs() if j["label"] == "hot"
        ][CLIENTS:]
        return {
            "cold_wall_s": cold_wall_s,
            "cold_computes": cold_computes,
            "coalesced": coalesced,
            "latencies": latencies,
            "warm_computes": warm_computes,
            "warm_cache_hits": sum(j["cache_hits"] for j in warm_jobs),
            "failed": stats["jobs"].get("failed", 0),
            "total_computes": stats["counters"]["runner.computes"],
        }
    finally:
        await service.aclose()


def test_service_load(out_dir, tmp_path):
    report = asyncio.run(
        asyncio.wait_for(_drive(str(tmp_path / "cache")), timeout=120)
    )

    total_requests = CLIENTS * (1 + WARM_ROUNDS) + len(DISTINCT_SPECS)
    p50 = _percentile(report["latencies"], 0.50)
    p99 = _percentile(report["latencies"], 0.99)
    coalesce_ratio = report["coalesced"] / CLIENTS
    hit_rate = report["warm_cache_hits"] / max(1, len(report["latencies"]))

    emit(out_dir, "service_load", "\n".join([
        f"clients: {CLIENTS}, warm rounds: {WARM_ROUNDS}, "
        f"total requests: {total_requests}",
        f"cold burst ({CLIENTS} identical jobs): "
        f"{report['cold_computes']} compute(s), "
        f"{report['coalesced']} coalesced, "
        f"wall {report['cold_wall_s'] * 1e3:.0f} ms",
        f"warm bursts: {report['warm_computes']} compute(s), "
        f"memory hit rate {hit_rate:.2f}",
        f"warm latency: p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms "
        f"({len(report['latencies'])} samples)",
        f"computes total: {report['total_computes']} "
        f"(expected {EXPECTED_COMPUTES})",
    ]))
    write_bench_json(
        out_dir,
        "service_load",
        # Compute/error counts are deterministic and independent of the
        # client count, so smoke runs at any N share this baseline.
        metrics={
            "cold_computes": float(report["cold_computes"]),
            "distinct_computes": float(
                report["total_computes"]
                - report["cold_computes"]
                - report["warm_computes"]
            ),
            "warm_computes": float(report["warm_computes"]),
            "failed_jobs": float(report["failed"]),
        },
        timings_s={
            "cold_burst_wall": report["cold_wall_s"],
            "warm_p50": p50,
            "warm_p99": p99,
        },
        extra={
            "clients": CLIENTS,
            "warm_rounds": WARM_ROUNDS,
            "total_requests": total_requests,
            "coalesce_ratio": coalesce_ratio,
            "warm_memory_hit_rate": hit_rate,
        },
    )

    # The service's whole value proposition, asserted end to end.
    assert report["total_computes"] == EXPECTED_COMPUTES, report
    assert report["warm_computes"] == 0, report
    assert report["failed"] == 0, report
    assert hit_rate == 1.0, report


# ----------------------------------------------------------------------
# Durability: SIGKILL a real server, measure journal recovery
# ----------------------------------------------------------------------
_SRC = Path(__file__).resolve().parents[1] / "src"

#: Jobs acknowledged as done before the crash (one cell each).
ACKED_SPECS = [
    {"mix": "HM2", "site": "AZ", "month": month} for month in (3, 6, 9)
]
#: The job caught mid-flight by the kill (12 distinct cells).
INFLIGHT_SPEC = {"tasks": [
    {"mix": "HM2", "site": "AZ", "month": month, "seed": seed}
    for month in (1, 7) for seed in range(6)
]}


def _spawn_serve(cwd, *extra) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=cwd, env=env,
    )
    lines = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server died during startup (exit {proc.poll()}):\n"
                + "".join(lines)
            )
        lines.append(line)
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))


def test_service_durability(out_dir, tmp_path):
    flags = (
        "--journal-dir", str(tmp_path / "journal"),
        "--cache-dir", str(tmp_path / "cache"),
    )
    proc, port = _spawn_serve(tmp_path, *flags)
    try:
        async def load_then_catch_running():
            client = ServiceClient("127.0.0.1", port)
            acked = [
                await client.submit(spec, wait=True) for spec in ACKED_SPECS
            ]
            assert all(doc["state"] == "done" for doc in acked), acked
            inflight = await client.submit(INFLIGHT_SPEC)
            while (await client.job(inflight["job_id"]))["state"] == "queued":
                await asyncio.sleep(0.005)
            return [doc["job_id"] for doc in acked], inflight["job_id"]

        acked_ids, inflight_id = asyncio.run(
            asyncio.wait_for(load_then_catch_running(), timeout=120)
        )
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait(timeout=30)

    restart_t0 = time.perf_counter()
    proc2, port2 = _spawn_serve(tmp_path, *flags)
    try:
        async def recover():
            client = ServiceClient("127.0.0.1", port2)
            jobs = {doc["job_id"]: doc for doc in await client.jobs()}
            lost = sum(
                1 for job_id in acked_ids
                if jobs.get(job_id, {}).get("state") != "done"
            )
            if inflight_id not in jobs:
                lost += 1
            else:
                final = await client.wait_terminal(inflight_id)
                if final["state"] != "done":
                    lost += 1
            wall = time.perf_counter() - restart_t0
            return lost, wall, await client.stats()

        lost, recovery_wall_s, stats = asyncio.run(
            asyncio.wait_for(recover(), timeout=120)
        )
    finally:
        if proc2.poll() is None:
            proc2.kill()
        proc2.stdout.close()
        proc2.wait(timeout=30)

    recovery = stats["recovery"]
    emit(out_dir, "service_durability", "\n".join([
        f"acknowledged before SIGKILL: {len(acked_ids)} done + 1 in flight",
        f"lost acknowledged jobs: {lost}",
        f"journal replay: {recovery['jobs']} job(s) from "
        f"{recovery['records']} record(s) in {recovery['replay_s'] * 1e3:.1f} ms",
        f"recovered: {recovery['requeued']} requeued, "
        f"{recovery['failed']} failed",
        f"restart to all-terminal: {recovery_wall_s:.2f} s",
    ]))
    write_bench_json(
        out_dir,
        "service_durability",
        # Durability is binary: any lost acknowledged job hard-fails.
        metrics={
            "lost_acknowledged_jobs": float(lost),
            "recovery_failed_jobs": float(recovery["failed"]),
            "journal_corrupt_lines": float(recovery["corrupt_lines"]),
        },
        timings_s={
            "journal_replay": recovery["replay_s"],
            "recovery_to_terminal": recovery_wall_s,
        },
        extra={
            "jobs_replayed": recovery["jobs"],
            "requeued": recovery["requeued"],
            "journal_records": recovery["records"],
            "acked_jobs": len(acked_ids),
        },
    )
    assert lost == 0, (acked_ids, inflight_id, stats)
    # Recovery waits on nothing but the requeued job's compute: the kernel
    # freed the killed server's lease locks when it died, so no key the
    # successor needs is still held.
    assert recovery_wall_s < 25.0, recovery_wall_s
    assert recovery["requeued"] == 1, stats
