"""The ``service_mixed`` workload: a real ``repro serve`` under a seeded
closed-loop job stream, with a graceful restart halfway.

One cycle:

1. Start ``repro serve --solver table --cache-dir D --journal-dir J
   --port 0`` on empty D and J.  Leases stay on through the default
   ``--lease-stale 30`` and every journal append is fsynced: the path
   users run.
2. Phase A: two closed-loop HTTP clients (the host's two cores) each run
   their own seeded job list through ``POST /jobs?wait=1``.  Both open
   with the same hot cell, together, so the first compute (which builds
   the table surface) is coalesced and runs alone.  Most jobs
   are single-cell repeats from a hot set of 8 cells.  At two sync points
   both clients submit 5-task sweeps at the same moment, drawn from one
   6-cell pool so they overlap in 4 cells and coalesce.  At ``misses``
   more sync points both submit the same new cell: one compute, which
   both jobs wait on.
3. SIGTERM (graceful drain), then restart the server on the same D and
   J: journal replay and disk-cache reads sit on the user's path here.
4. Phase B: both clients request the hot set again.

Job proportions per client: ``hot_a`` hot jobs, 2 sweeps and ``misses``
miss jobs in phase A, ``hot_b`` hot jobs in phase B (``JobMix``).  Why:
hot jobs keep the service layer busy (HTTP, three fsynced journal
appends each) while the compute pool idles, which is what a deployed
service spends its time on, and they set ``job_p50_ms``; the sweeps
exercise coalescing and the one surface build; the restart is the only
place disk-cache loads and journal replay are on a user's path.  The
miss jobs are about 3% of all jobs, so ``job_p99_ms`` falls inside them
and measures how long a job waits on a compute.  With fewer than 1% it
would fall in the last fraction of a percent of the hot jobs, where
millisecond stalls of the shared host decide it.

The cell universe is fixed (the hot set, the pools and the first
``misses`` miss cells, all cells of the exact reference, so the
service's table-mode results also get a ``table_rel_err``); the seed
chooses which hot cell each job asks for, where the sync points fall,
in which order the miss cells come, and which pool cell each client's
sweep leaves out.  Every job sets
``"solver": "table"`` because ``JobSpec.from_dict`` defaults to exact
whatever ``--solver`` the server was started with.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import common

#: Hot set: MPPT&Opt in July at two stations for the four headline mixes.
HOT_CELLS = tuple(
    {"kind": "mppt", "mix": mix, "site": site, "month": 7, "policy": "MPPT&Opt"}
    for mix in ("H1", "L1", "HM2", "ML2") for site in ("PFCI", "BMS")
)
#: The two sweep pools (one per sync point), disjoint from the hot set.
SWEEP_POOLS = (
    tuple({"kind": "mppt", "mix": mix, "site": "ECSU", "month": 1, "policy": "MPPT&RR"}
          for mix in ("H1", "L1", "HM2", "ML2"))
    + tuple({"kind": "fixed", "mix": "HM2", "site": "PFCI", "month": 1, "budget_w": b}
            for b in (60.0, 75.0)),
    tuple({"kind": "mppt", "mix": mix, "site": "ORNL", "month": 1, "policy": "MPPT&IC"}
          for mix in ("H1", "L1", "HM2", "ML2"))
    + tuple({"kind": "battery", "mix": mix, "site": "ORNL", "month": 7, "derating": 0.81}
            for mix in ("H1", "L1")),
)
#: The miss cells: every MPPT cell of the exact reference outside the hot
#: set and the sweep pools (80), in a fixed order.
MISS_CELLS = tuple(
    cell for cell in (
        {"kind": "mppt", "mix": mix, "site": site, "month": month, "policy": policy}
        for month in (1, 7) for policy in ("MPPT&IC", "MPPT&RR", "MPPT&Opt")
        for site in ("PFCI", "BMS", "ECSU", "ORNL") for mix in ("H1", "L1", "HM2", "ML2")
    )
    if cell not in HOT_CELLS and all(cell not in pool for pool in SWEEP_POOLS)
)
CLIENTS = 2
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class JobMix:
    """Jobs per client: hot jobs before and after the restart; before it
    also 2 sweeps and one job for each of the first ``misses`` miss cells."""

    hot_a: int
    hot_b: int
    misses: int


def job_lists(seed: int, mix: JobMix) -> tuple[list[list[dict]], list[list[dict]]]:
    """Each client's phase-A and phase-B job specs, from ``seed``.

    A spec with ``"sync": True`` is submitted by both clients together:
    each client waits for the other there, and the k-th such spec of one
    client meets the k-th of the other.  Both clients open with the same
    hot cell, so the first miss coalesces into one compute, which builds
    the table surface once before any other compute starts
    (``get_surfaces`` takes no lock, so two first computes racing on two
    threads would build it once or twice, varying from run to run).
    Each miss cell is likewise asked for by both clients together: one
    compute that both jobs wait on, with no other job beside it.
    """
    rng = random.Random(seed)
    sweep_at = (rng.randrange(1, mix.hot_a // 10),
                rng.randrange(mix.hot_a // 2 - mix.hot_a // 10,
                              mix.hot_a // 2 + mix.hot_a // 10))
    left_out = [rng.sample(range(len(pool)), CLIENTS) for pool in SWEEP_POOLS]
    first = {**rng.choice(HOT_CELLS), "solver": "table", "sync": True}
    misses = list(MISS_CELLS[:mix.misses])
    rng.shuffle(misses)
    free = sorted(set(range(1, mix.hot_a)) - set(sweep_at))
    miss_at = dict(zip(sorted(rng.sample(free, len(misses))), misses))

    def hot_stream(n):
        jobs = []
        while len(jobs) < n:
            block = list(HOT_CELLS)
            rng.shuffle(block)
            jobs.extend({**cell, "solver": "table"} for cell in block)
        return jobs[:n]

    phase_a, phase_b = [], []
    for client in range(CLIENTS):
        sweeps = []
        for pool, out in zip(SWEEP_POOLS, left_out):
            tasks = [cell for i, cell in enumerate(pool) if i != out[client]]
            rng.shuffle(tasks)
            sweeps.append({"tasks": tasks, "solver": "table", "sync": True})
        jobs = [first]
        for i, hot in enumerate(hot_stream(mix.hot_a - 1), start=1):
            if i in sweep_at:
                jobs.append(sweeps[sweep_at.index(i)])
            elif i in miss_at:
                jobs.append({**miss_at[i], "solver": "table", "sync": True})
            jobs.append(hot)
        phase_a.append(jobs)
        phase_b.append(hot_stream(mix.hot_b))
    return phase_a, phase_b


def universe(mix: JobMix) -> list[dict]:
    """Every distinct cell the stream requests."""
    return (list(HOT_CELLS) + [cell for pool in SWEEP_POOLS for cell in pool]
            + list(MISS_CELLS[:mix.misses]))


# ----------------------------------------------------------------------
# HTTP (the benchmark's own client, so only the server is measured)
# ----------------------------------------------------------------------
async def http(port: int, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection; ``(status, decoded JSON body)``."""
    payload = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write((
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1") + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, data = raw.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    if len(parts) < 2:
        raise ValueError(f"malformed HTTP response: {raw[:80]!r}")
    return int(parts[1]), json.loads(data) if data else {}


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process (traced through the launcher if asked)."""

    def __init__(self, proc, port: int, started_at: float, ready_s: float) -> None:
        self.proc = proc
        self.port = port
        #: Spawn time (``perf_counter``) and spawn-to-listening seconds.
        self.started_at = started_at
        self.ready_s = ready_s
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        while await self.proc.stdout.readline():
            pass

    @classmethod
    async def start(cls, cache_dir: Path, journal_dir: Path, log_path: Path,
                    trace_dir: Path | None = None) -> "Server":
        argv = ["serve", "--solver", "table", "--cache-dir", str(cache_dir),
                "--journal-dir", str(journal_dir), "--port", "0"]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                   "--trace-dir", str(trace_dir), *argv]
        start = time.perf_counter()
        with open(log_path, "ab") as log:
            proc = await asyncio.create_subprocess_exec(
                *cmd, stdout=asyncio.subprocess.PIPE, stderr=log,
                env=common.child_env(), cwd=common.ROOT, start_new_session=True,
            )
        try:
            while True:
                line = await asyncio.wait_for(proc.stdout.readline(), READY_TIMEOUT_S)
                if not line:
                    raise RuntimeError(f"server exited before listening; see {log_path}")
                text = line.decode()
                if text.startswith("solarcore service on http://"):
                    port = int(text.split()[3].rsplit(":", 1)[1])
                    break
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, port, start, time.perf_counter() - start)

    def peak_rss_mb(self) -> float:
        """The server's resident-memory high-water mark (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> int:
        """SIGTERM (graceful drain) and wait for the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            await _kill(self.proc)
            code = -1
        await self._drain_task
        return code


async def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    await proc.wait()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    start: float = 0.0
    wall_s: float = 0.0
    #: Submit-to-terminal time of every job that got an HTTP answer.
    latencies_ms: list[float] = field(default_factory=list)
    #: Simulated days each of those jobs delivered (0 unless ``done``).
    days: list[int] = field(default_factory=list)
    #: Status documents of the jobs answered 200, with their latencies.
    statuses: list[dict] = field(default_factory=list)
    status_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


async def drive(port: int, lists: list[list[dict]]) -> PhaseResult:
    """Run each client's job list to completion, one job at a time."""
    result = PhaseResult()
    barrier = asyncio.Barrier(len(lists))

    async def client(jobs: list[dict]) -> None:
        for job in jobs:
            spec = {k: v for k, v in job.items() if k != "sync"}
            if job.get("sync"):
                await barrier.wait()
            start = time.perf_counter()
            try:
                status, doc = await asyncio.wait_for(
                    http(port, "POST", "/jobs?wait=1", spec), JOB_TIMEOUT_S)
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                result.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            latency_ms = (time.perf_counter() - start) * 1e3
            result.latencies_ms.append(latency_ms)
            done = status == 200 and doc.get("state") == "done"
            result.days.append(len(doc.get("result") or []) if done else 0)
            if status != 200:
                result.errors.append(f"HTTP {status}: {doc}")
                continue
            result.statuses.append(doc)
            result.status_ms.append(latency_ms)

    result.start = time.perf_counter()
    await asyncio.gather(*(client(jobs) for jobs in lists))
    result.wall_s = time.perf_counter() - result.start
    return result


async def setup_probe(work: Path, log_path: Path) -> tuple[float, float]:
    """Spawn time and spawn-to-listening seconds of a server on empty
    directories."""
    server = await Server.start(work / "cache", work / "journal", log_path)
    await server.stop()
    return server.started_at, server.ready_s


async def cycle(seed: int, mix: JobMix, work: Path, log_path: Path,
                trace_dir: Path | None = None) -> dict:
    """Start, phase A, drain, restart, phase B, stop; the raw outcome."""
    cache_dir, journal_dir = work / "cache", work / "journal"
    phase_a, phase_b = job_lists(seed, mix)
    out: dict = {"servers": []}
    start = time.perf_counter()
    first = await Server.start(cache_dir, journal_dir, log_path, trace_dir)
    try:
        out["a"] = await drive(first.port, phase_a)
        _, out["stats_a"] = await http(first.port, "GET", "/stats")
        out["rss_mb"] = [first.peak_rss_mb()]
    finally:
        out["servers"].append((first.started_at, first.ready_s, await first.stop()))
    second = await Server.start(cache_dir, journal_dir, log_path, trace_dir)
    try:
        out["b"] = await drive(second.port, phase_b)
        _, out["stats_b"] = await http(second.port, "GET", "/stats")
        out["rss_mb"].append(second.peak_rss_mb())
    finally:
        out["servers"].append((second.started_at, second.ready_s, await second.stop()))
    out["wall_s"] = time.perf_counter() - start
    return out


def summaries(out: dict) -> dict[str, dict]:
    """Each distinct cell's summary (by task description), first seen."""
    seen: dict[str, dict] = {}
    for doc in out["a"].statuses + out["b"].statuses:
        for summary in doc.get("result") or []:
            seen.setdefault(summary["task"], summary)
    return seen


def table_error(out: dict, reference: dict) -> float:
    """Largest relative deviation of the served PTP and solar energy used
    from the exact reference (every service cell is a reference cell)."""

    def cell_id(task: str) -> str:  # from SweepTask.describe()
        coords = dict(part.split("=", 1) for part in task.split())
        return "|".join(coords[k] for k in ("kind", "mix", "location", "month", "param"))

    return common.table_error(
        ((cell_id(task), summary) for task, summary in summaries(out).items()),
        reference)[0]


def layer_extras(out: dict) -> dict[str, float]:
    """Per-layer service metrics the load generator measures itself."""
    statuses = out["a"].statuses + out["b"].statuses
    latencies = out["a"].status_ms + out["b"].status_ms
    tasks = sum(s["tasks"] for s in statuses)
    misses = [lat for lat, s in zip(latencies, statuses) if s["cache_hits"] < s["tasks"]]
    computed = coalesced = 0
    for stats in (out["stats_a"], out["stats_b"]):
        computed += stats["coalesce"]["computed"]
        coalesced += stats["coalesce"]["coalesced"]
    return {
        "service.jobs": len(out["a"].latencies_ms) + len(out["b"].latencies_ms),
        "service.restart_s": out["servers"][1][1],
        "service.coalesce.attached_share": (
            coalesced / (computed + coalesced) if computed + coalesced else 0.0),
        "service.memory_hit_share": (
            sum(s["cache_hits"] for s in statuses) / tasks if tasks else 0.0),
        "service.miss_jobs": len(misses),
        "service.miss_job_p50_ms": common.percentile(misses, 50) if misses else 0.0,
    }


def check(out: dict, mix: JobMix) -> list[tuple[str, bool]]:
    """The workload's output checks on one cycle's outcome."""
    checks = []
    statuses = out["a"].statuses + out["b"].statuses
    checks.append(("every job ends done", all(s["state"] == "done" for s in statuses)
                   and not out["a"].errors and not out["b"].errors))
    seen: dict[str, str] = {}
    consistent = True
    for doc in statuses:
        for summary in doc.get("result") or []:
            text = json.dumps(summary, sort_keys=True)
            if seen.setdefault(summary["task"], text) != text:
                consistent = False
    checks.append(("each cell's summary is identical in every job", consistent))
    distinct = len(universe(mix))
    checks.append(("every cell was requested", len(seen) == distinct))
    computes_a = out["stats_a"].get("counters", {}).get("runner.computes", 0)
    computes_b = out["stats_b"].get("counters", {}).get("runner.computes", 0)
    checks.append((f"computes before restart == {distinct} distinct cells",
                   computes_a == distinct))
    checks.append(("no computes after restart", computes_b == 0))
    checks.append(("both servers exited 0", all(code == 0 for *_, code in out["servers"])))
    return checks
