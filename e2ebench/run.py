"""The repository's end-to-end benchmark.

Usage, from the checkout root::

    python3 e2ebench/run.py --workload {figures_exact,grid_table,service_mixed,all}
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes from empty caches, checks its
outputs and prints, as its last stdout line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured untraced, with every time scaled to the
reference host speed (see ``hostspeed.py``); with ``--trace 1`` they are the
per-layer metrics, from one untraced and one traced iteration (see
``tracing.py``).  Every metric is also printed on stderr by name with its
unit.  ``--workload all`` runs every workload and prints one line each.
See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import hostspeed
import loadgen
import tracing

BATCH = ("figures_exact", "grid_table")
WORKLOADS = BATCH + ("service_mixed",)
#: Set-up-only process starts per run, besides each iteration's own.
SETUP_PROBES = 3
#: A batch run makes a second iteration if both end within this many
#: times ``--seconds`` (the median of one carries that iteration's whole
#: noise), and more only while they end within ``--seconds``.  A host so
#: slow that two would not fit gets one, so the run stays short.
SECOND_ITERATION_SLACK = 1.5
#: Service jobs per second of ``--seconds``: hot jobs per client, and
#: miss cells (at most the 80 of ``loadgen.MISS_CELLS``), each asked for
#: by both clients.  At 30 s that is 2 x 2700 hot jobs and 2 x 80 miss
#: jobs, so 2.9% of the jobs wait on a compute and ``job_p99_ms`` falls
#: well inside them (see ``loadgen.py``).
HOT_JOBS_PER_CLIENT_S = 90
MISSES_PER_S = 80 / 30
#: A run stops what it is doing after this long, so that it ends within
#: 180 s even after stopping its servers (``loadgen.STOP_TIMEOUT_S`` each).
RUN_LIMIT_S = 140.0
#: Per-layer metrics only the load generator measures (0 on batch runs).
SERVICE_ONLY = ("service.jobs", "service.restart_s", "service.coalesce.attached_share",
                "service.memory_hit_share", "service.miss_jobs", "service.miss_job_p50_ms")
#: Layers each workload exists to exercise: a traced run in which one of
#: these reads 0 traced nothing there, and fails.
MUST_RECORD = {
    "figures_exact": ("pv.find_mpp.calls", "power.solve_operating_point.calls",
                      "core.controller.track.calls", "multicore.chip.calls",
                      "harness.compute_task.calls", "harness.disk_cache.stores"),
    "grid_table": ("power.surface.builds", "power.surface.lookups", "core.fastday.days",
                   "environment.generate_trace.calls", "core.controller.track.calls",
                   "multicore.chip.calls", "harness.disk_cache.stores"),
    "service_mixed": ("service.journal.appends", "service.journal.compactions",
                      "service.journal.replay_s", "service.compute.busy_s",
                      "harness.disk_cache.loads", "harness.disk_cache.lease_s",
                      "power.surface.builds"),
}


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and the per-layer metrics."""
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def log_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def spawn_batch(workload: str, seed: int, work: Path, deadline: float, *,
                setup_only=False, trace_dir: Path | None = None) -> dict:
    """Run ``batch.py`` once: its report, plus the ``perf_counter`` times
    ``start`` (spawn), ``ready`` and ``end`` (exit) and ``wall_s``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(common.BENCH_DIR / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    log_path = work.parent / f"{work.name}.log"
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                env=common.child_env(), cwd=common.ROOT,
                                start_new_session=True)
    # The watchdog kills the whole process group (the pool workers too).
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group, (proc.pid,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_at = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    end = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or ready.strip() != b"READY":
        return {"error": f"exit code {proc.returncode}:\n{log_tail(log_path)}"}
    report = {} if setup_only else json.loads(rest.decode().strip().splitlines()[-1])
    return {**report, "start": start, "ready": ready_at, "end": end, "wall_s": end - start}


def batch_outcome(report: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure descriptions) of one iteration report."""
    if "error" in report:
        return 1, 1, [report["error"]]
    failures = [f"cell {c}" for c in report["failed_cells"]]
    failures += [f"check {name}" for name, ok in report["checks"] if not ok]
    return report["cells"] + len(report["checks"]), len(failures), failures


def run_batch(workload: str, seed: int, seconds: float, work: Path,
              sampler: hostspeed.Sampler | None) -> dict:
    """The batch workload's run; traced when ``sampler`` is None."""
    trace = sampler is None
    deadline = time.monotonic() + RUN_LIMIT_S
    reports = []
    if trace:
        reports.append(spawn_batch(workload, seed, work / "it", deadline))
        reports.append(spawn_batch(workload, seed, work / "it", deadline,
                                   trace_dir=work / "trace"))
    else:
        for _ in range(SETUP_PROBES):
            reports.append(spawn_batch(workload, seed, work / "probe", deadline,
                                       setup_only=True))
        start = time.perf_counter()
        runs = 0
        while True:
            reports.append(spawn_batch(workload, seed, work / "it", deadline))
            runs += 1
            elapsed = time.perf_counter() - start
            # Start another only if one more of average length still ends
            # in time.
            limit = seconds * (SECOND_ITERATION_SLACK if runs == 1 else 1.0)
            if "error" in reports[-1] or elapsed * (runs + 1) / runs > limit:
                break
    attempted = failed = 0
    problems: list[str] = []
    for report in reports:
        if "start" in report and "cells" not in report:
            attempted += 1  # a set-up-only probe
            continue
        a, f, why = batch_outcome(report)
        attempted, failed, problems = attempted + a, failed + f, problems + why
    result = {"attempted": attempted, "failed": failed, "problems": problems}
    iterations = [r for r in reports if "cells" in r]
    if any("error" in r for r in reports) or not iterations:
        return result
    if trace:
        plain, traced = iterations
        layers = tracing.layer_metrics(tracing.merge(work / "trace"), "workload", common.JOBS)
        layers.update(dict.fromkeys(SERVICE_ONLY, 0))
        layers.update({
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "table_rel_err": traced["table_rel_err"],
            "failed_share": failed / attempted,
        })
        result["metrics"] = layers
        return result
    speed = sampler.read()
    setups = [speed.scaled(r["start"], r["ready"]) for r in reports]
    # A batch job is one whole workload run: spawn to checked outputs.
    walls_ms = [speed.scaled(r["start"], r["end"]) * 1e3 for r in iterations]
    rates = [r["days"] / speed.scaled(r["work_start"], r["work_start"] + r["work_s"])
             for r in iterations]
    result["metrics"] = {
        "setup_s": common.median(setups),
        "days_per_s": common.median(rates),
        "job_p50_ms": common.median(walls_ms),
        "job_p99_ms": common.percentile(walls_ms, 99),
        "jobs_per_s": len(iterations) / (sum(walls_ms) / 1e3),
        "peak_rss_mb": common.median(r["peak_rss_mb"] for r in iterations),
    }
    result["detail"] = {
        "iterations": len(iterations), "setup_samples": len(setups),
        "days_per_s_each": [round(rate, 2) for rate in rates],
        "raw_days_per_s_each": [round(r["days"] / r["work_s"], 2) for r in iterations],
        "raw_setup_s": round(common.median(r["ready"] - r["start"] for r in reports), 4),
        "host_slowdown_each": [round(speed.slowdown(r["start"], r["end"]), 3)
                               for r in iterations],
        "table_rel_err": iterations[-1]["table_rel_err"],
        "table_rel_err_at": iterations[-1]["table_rel_err_at"],
    }
    return result


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
def run_service(seed: int, seconds: float, work: Path,
                sampler: hostspeed.Sampler | None) -> dict:
    """The service workload's run; traced when ``sampler`` is None."""
    trace = sampler is None
    per_client = max(500, round(HOT_JOBS_PER_CLIENT_S * seconds))
    mix = loadgen.JobMix(hot_a=per_client * 7 // 10, hot_b=per_client - per_client * 7 // 10,
                         misses=min(len(loadgen.MISS_CELLS), round(MISSES_PER_S * seconds)))
    log_path = work / "server.log"

    async def cycle(name: str, trace_dir=None) -> dict:
        cycle_work = work / name
        cycle_work.mkdir(parents=True)
        return await loadgen.cycle(seed, mix, cycle_work, log_path, trace_dir)

    async def main() -> dict:
        if trace:
            return {"plain": await cycle("plain"),
                    "traced": await cycle("traced", work / "trace")}
        probes = []
        for i in range(SETUP_PROBES):
            probe_work = work / f"probe{i}"
            probe_work.mkdir(parents=True)
            probes.append(await loadgen.setup_probe(probe_work, log_path))
        return {"probes": probes, "plain": await cycle("plain")}

    try:
        runs = asyncio.run(asyncio.wait_for(main(), RUN_LIMIT_S))
    except (OSError, RuntimeError, asyncio.TimeoutError) as exc:
        return {"attempted": 1, "failed": 1,
                "problems": [f"{type(exc).__name__}: {exc}\n{log_tail(log_path)}"]}
    out = runs["traced" if trace else "plain"]
    checks = loadgen.check(out, mix)
    statuses = out["a"].statuses + out["b"].statuses
    latencies = out["a"].latencies_ms + out["b"].latencies_ms
    phase_a, phase_b = loadgen.job_lists(seed, mix)
    jobs = sum(len(jobs) for jobs in phase_a + phase_b)
    not_done = jobs - sum(1 for s in statuses if s["state"] == "done")
    failed_checks = [name for name, ok in checks if not ok]
    failed = not_done + len(failed_checks)
    result = {"attempted": jobs + len(checks), "failed": failed,
              "problems": failed_checks + out["a"].errors[:5] + out["b"].errors[:5]}
    table_err = loadgen.table_error(out, common.load_reference())
    if trace:
        layers = tracing.layer_metrics(tracing.merge(work / "trace"), "service.process", 0)
        layers.update(loadgen.layer_extras(out))
        layers.update({
            "trace.overhead_s": runs["traced"]["wall_s"] - runs["plain"]["wall_s"],
            "table_rel_err": table_err,
            "failed_share": failed / result["attempted"],
        })
        result["metrics"] = layers
        return result
    # Each phase is scaled by its own slowdown.  A job's latency is a few
    # ms and partly fsync wait, which the CPU's speed does not move, so
    # the few samples around one job would add noise, not remove it.
    speed = sampler.read()
    phases = (out["a"], out["b"])
    slowdowns = [speed.slowdown(p.start, p.start + p.wall_s) for p in phases]
    scaled_ms = [ms / slow for p, slow in zip(phases, slowdowns) for ms in p.latencies_ms]
    phase_s = sum(p.wall_s / slow for p, slow in zip(phases, slowdowns))
    starts = runs["probes"] + [out["servers"][0][:2]]
    result["metrics"] = {
        "setup_s": common.median(speed.scaled(t, t + s) for t, s in starts),
        "days_per_s": sum(sum(p.days) for p in phases) / phase_s,
        "job_p50_ms": common.percentile(scaled_ms, 50),
        "job_p99_ms": common.percentile(scaled_ms, 99),
        "jobs_per_s": len(scaled_ms) / phase_s,
        "peak_rss_mb": max(out["rss_mb"]),
    }
    result["detail"] = {
        "jobs": len(latencies),
        "raw_p50_ms": common.percentile(latencies, 50),
        "raw_p99_ms": common.percentile(latencies, 99),
        "raw_jobs_per_s": len(latencies) / sum(p.wall_s for p in phases),
        "host_slowdown_each": [round(slow, 3) for slow in slowdowns],
        "restart_s": out["servers"][1][1], "table_rel_err": table_err,
    }
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = common.WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = run_batch if workload in BATCH else run_service
    args = (workload, seed, seconds, work) if workload in BATCH else (seed, seconds, work)
    try:
        if trace:
            result = run(*args, None)
        else:
            with hostspeed.Sampler(work / "hostspeed.txt", common.child_env()) as sampler:
                result = run(*args, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass
    if trace and "metrics" in result:
        silent = [name for name in MUST_RECORD[workload] if not result["metrics"][name]]
        result["failed"] += len(silent)
        result["problems"] += [f"traced run recorded nothing for {name}" for name in silent]
    return result


def report_line(result: dict, units: dict) -> dict:
    metrics = result.get("metrics", {})
    complete = all(name in metrics for name in units)
    return {
        "correct": result["failed"] == 0 and complete,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def main() -> int:
    common.require_source()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line = report_line(result, units)
        for problem in result["problems"]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        for metric, doc in line["metrics"].items():
            print(f"{name}: {metric} = {doc['value']:.6g} {doc['unit']}", file=sys.stderr)
        for key, value in result.get("detail", {}).items():
            print(f"{name}: ({key} = {value})", file=sys.stderr)
        lines.append(line)
    for line in lines:
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
