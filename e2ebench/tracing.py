"""Outside-in tracing for the benchmark's traced run.

:func:`install` wraps the public functions of each layer of ``repro``
from outside the program: it replaces the function on its class or
module, and also every module attribute that *is* the original, because
``from x import f`` binds ``f`` at import time (``repro.core.engine``,
``repro.core.controller`` and ``repro.core.simulation`` hold such
copies; a wrapper missing them records nothing).

Each wrapped call is a frame on a per-thread stack, so a call's self
time is its duration minus the time its wrapped children cover.  Layer
boundaries that run a few thousand times a run (a day, a task, a
compaction) are kept as individual spans -- name, start, end, parent,
pid; hot leaves (a solver call, a chip query) are aggregated per name.

Pool workers are forked with the wrappers in place.  A fork handler
clears the inherited records, and each worker appends its records to
``<trace_dir>/pid-<pid>.jsonl`` after every top-level ``compute_task``;
other processes write theirs once, at the end, with :meth:`Tracer.flush`.
:func:`merge` reads every file back and :func:`layer_metrics` turns the
records into the per-layer metrics.

Nothing here touches ``repro.telemetry``: an enabled telemetry hub turns
the fastday path off, so arming it would trace a different program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute or Class.method, record name, kept as spans?)
TARGETS = (
    ("repro.environment.irradiance", "generate_trace", "environment.generate_trace", False),
    ("repro.pv.mpp", "find_mpp", "pv.find_mpp", False),
    ("repro.power.operating_point", "solve_operating_point",
     "power.solve_operating_point", False),
    ("repro.power.surface", "OperatingSurfaces.build", "power.surface.build", True),
    ("repro.core.engine", "DayEngine.run", "core.engine", True),
    ("repro.core.fastday", "run_fast", "core.fastday", False),
    ("repro.core.controller", "SolarCoreController.track", "core.controller.track", False),
    ("repro.multicore.chip", "MultiCoreChip.total_power_at", "multicore.chip", False),
    ("repro.multicore.chip", "MultiCoreChip.advance", "multicore.chip", False),
    ("repro.harness.parallel", "compute_task", "harness.compute_task", True),
    ("repro.harness.parallel", "run_parallel", "harness.run_parallel", True),
    ("repro.harness.parallel", "code_fingerprint", "harness.code_fingerprint", True),
    ("repro.harness.parallel", "DiskResultCache.store", "harness.disk_cache.store", False),
    ("repro.harness.parallel", "DiskResultCache.load", "harness.disk_cache.load", False),
    ("repro.harness.parallel", "DiskResultCache.try_lease", "harness.disk_cache.lease", False),
    ("repro.harness.parallel", "CacheLease.release", "harness.disk_cache.lease", False),
    ("repro.harness.runner", "SimulationRunner.prefetch", "harness.prefetch", True),
    ("repro.harness.runner", "SimulationRunner.run_task", "service.compute", True),
    ("repro.service.journal", "JobJournal.append", "service.journal.append", False),
    ("repro.service.journal", "JobJournal.compact", "service.journal.compact", True),
    ("repro.service.journal", "JobJournal.replay", "service.journal.replay", True),
)


class _ThreadRecords:
    """One thread's call stack and records (no locking on the hot path)."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child_time_s, span_id, parent, start]
        self.spans: list[tuple] = []  # (name, span_id, start, end, parent, self_s)
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}


class Tracer:
    """The process's trace records, written to ``trace_dir``."""

    def __init__(self, trace_dir: str | os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._threads: list[_ThreadRecords] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.surfaces: list = []

    def records(self) -> _ThreadRecords:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecords()
            with self._lock:
                self._threads.append(rec)
        return rec

    def count(self, name: str, n: int = 1) -> None:
        counts = self.records().counts
        counts[name] = counts.get(name, 0) + n

    def _enter(self, keep_span: bool) -> tuple[_ThreadRecords, list]:
        rec = self.records()
        stack = rec.stack
        parent = stack[-1][1] if stack else 0
        # A leaf takes its parent's id, so spans under it still find a span.
        frame = [0.0, next(self._ids) if keep_span else parent, parent, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return rec, frame

    @staticmethod
    def _exit(rec: _ThreadRecords, frame: list, name: str, keep_span: bool) -> None:
        end = time.perf_counter()
        stack = rec.stack
        stack.pop()
        child_s, span_id, parent, start = frame
        duration = end - start
        if stack:
            stack[-1][0] += duration
        if keep_span:
            rec.spans.append((name, span_id, start, end, parent, duration - child_s))
            return
        agg = rec.leaves.get(name)
        if agg is None:
            agg = rec.leaves[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s

    def wrap(self, fn, name: str, keep_span: bool, on_result=None):
        """``fn`` timed as ``name``; ``on_result(tracer, result)`` after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, frame = self._enter(keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec, frame, name, keep_span)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (the root, the experiments)."""
        rec, frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(rec, frame, name, True)

    def flush(self) -> None:
        """Append this process's records since the last flush to its file."""
        spans: list[tuple] = []
        leaves: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for rec in threads:
            spans.extend(rec.spans)
            rec.spans = []
            for name, (calls, total, self_s) in rec.leaves.items():
                agg = leaves.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for name, n in rec.counts.items():
                counts[name] = counts.get(name, 0) + n
        counts["power.surface.lookups"] = sum(s.lookups for s in self.surfaces)
        counts["power.surface.fallbacks"] = sum(s.fallbacks for s in self.surfaces)
        line = json.dumps({
            "pid": self.pid, "spans": spans, "leaves": leaves, "counts": counts,
        })
        with open(self.trace_dir / f"pid-{self.pid}.jsonl", "a") as fh:
            fh.write(line + "\n")


def _resolve(module, path: str):
    """(owner, attribute, original function) for ``Class.method`` or ``func``."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
    return owner, parts[-1], raw


def install(trace_dir) -> Tracer:
    """Wrap every target; return the tracer that records their calls.

    The calling process writes its records with :meth:`Tracer.flush`;
    its forked pool workers flush after each top-level ``compute_task``.
    """
    tracer = Tracer(trace_dir)
    owner_pid = os.getpid()

    def after_task(tr: Tracer, _result) -> None:
        if tr.pid != owner_pid and not tr.records().stack:
            tr.flush()

    def fastday_days(tr: Tracer, ran: bool) -> None:
        if ran:
            tr.count("core.fastday.days")

    def disk_hit(tr: Tracer, result) -> None:
        if result is not None:
            tr.count("harness.disk_cache.hits")

    def keep_surface(tr: Tracer, surfaces) -> None:
        tr.surfaces.append(surfaces)

    hooks = {
        "harness.compute_task": after_task,
        "core.fastday": fastday_days,
        "harness.disk_cache.load": disk_hit,
        "power.surface.build": keep_surface,
    }
    modules = {name: importlib.import_module(name) for name, *_ in TARGETS}
    # Import the callers too, so their import-time copies of the targets
    # exist to be rebound below.
    for caller in ("repro.harness.experiments", "repro.harness.paper_summary",
                   "repro.service.app", "repro.cli"):
        importlib.import_module(caller)
    for module_name, path, name, keep_span in TARGETS:
        owner, attr, raw = _resolve(modules[module_name], path)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name, keep_span, hooks.get(name)))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(raw, name, keep_span, hooks.get(name))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return tracer


def merge(trace_dir) -> dict:
    """Every process's records: ``{pid: {"spans", "leaves", "counts"}}``."""
    merged: dict[int, dict] = {}
    for path in sorted(Path(trace_dir).glob("pid-*.jsonl")):
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            entry = merged.setdefault(doc["pid"], {"spans": [], "leaves": {}, "counts": {}})
            entry["spans"].extend(doc["spans"])
            entry["leaves"] = doc["leaves"]  # cumulative per process
            entry["counts"] = doc["counts"]
    return merged


def layer_metrics(merged: dict, root: str, workers: int) -> dict:
    """The per-layer metrics of one traced iteration.

    The processes that ran a top-level ``root`` span are the main ones;
    every other process is a pool worker, whose ``compute_task`` time
    counts towards ``harness.pool.busy_share`` (over ``workers`` x the
    main process's ``run_parallel`` wall).
    """
    totals: dict[str, list] = {}
    counts: dict[str, int] = {}
    worker_busy = pool_wall = 0.0
    root_dur = root_self = 0.0
    main_pids = {
        pid for pid, entry in merged.items()
        if any(s[0] == root and s[4] == 0 for s in entry["spans"])
    }
    for pid, entry in merged.items():
        is_main = pid in main_pids
        for name, _sid, start, end, parent, self_s in entry["spans"]:
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
            if name == "harness.compute_task" and not is_main:
                worker_busy += end - start
            elif name == "harness.run_parallel" and is_main:
                pool_wall += end - start
            elif name == root and is_main and parent == 0:
                root_dur += end - start
                root_self += self_s
        for name, (calls, total, self_s) in entry["leaves"].items():
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, n in entry["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    days = calls("core.engine")
    fast_days = counts.get("core.fastday.days", 0)
    loads = calls("harness.disk_cache.load")

    def per_day(n):
        return n / days if days else 0.0

    return {
        "environment.generate_trace.calls": calls("environment.generate_trace"),
        "environment.generate_trace.self_s": self_s("environment.generate_trace"),
        "pv.find_mpp.calls": calls("pv.find_mpp"),
        "pv.find_mpp.self_s": self_s("pv.find_mpp"),
        "power.solve_operating_point.calls": calls("power.solve_operating_point"),
        "power.solve_operating_point.self_s": self_s("power.solve_operating_point"),
        "power.surface.builds": calls("power.surface.build"),
        "power.surface.build_s": total_s("power.surface.build"),
        "power.surface.lookups": counts.get("power.surface.lookups", 0),
        "power.surface.fallbacks": counts.get("power.surface.fallbacks", 0),
        "core.engine.days": days,
        "core.engine.self_s": self_s("core.engine"),
        "core.fastday.days": fast_days,
        "core.fastday.share": per_day(fast_days),
        "core.controller.track.calls": calls("core.controller.track"),
        "core.controller.track.self_s": self_s("core.controller.track"),
        "multicore.chip.calls": calls("multicore.chip"),
        "multicore.chip.self_s": self_s("multicore.chip"),
        "harness.compute_task.calls": calls("harness.compute_task"),
        "harness.compute_task.busy_s": total_s("harness.compute_task"),
        "harness.pool.busy_share": (
            worker_busy / (workers * pool_wall) if pool_wall else 0.0),
        "harness.disk_cache.stores": calls("harness.disk_cache.store"),
        "harness.disk_cache.store_s": total_s("harness.disk_cache.store"),
        "harness.disk_cache.loads": loads,
        "harness.disk_cache.load_s": total_s("harness.disk_cache.load"),
        "harness.disk_cache.hit_rate": (
            counts.get("harness.disk_cache.hits", 0) / loads if loads else 0.0),
        "harness.disk_cache.lease_s": total_s("harness.disk_cache.lease"),
        "harness.code_fingerprint_s": total_s("harness.code_fingerprint"),
        "service.journal.appends": calls("service.journal.append"),
        "service.journal.append_s": total_s("service.journal.append"),
        "service.journal.compactions": calls("service.journal.compact"),
        "service.journal.compact_s": total_s("service.journal.compact"),
        "service.journal.replay_s": total_s("service.journal.replay"),
        "service.compute.busy_s": total_s("service.compute"),
        "work.find_mpp_per_day": per_day(calls("pv.find_mpp")),
        "work.solve_operating_point_per_day": per_day(
            calls("power.solve_operating_point")),
        "work.track_per_day": per_day(calls("core.controller.track")),
        "work.generate_trace_per_day": per_day(calls("environment.generate_trace")),
        "work.surface_builds_per_day": per_day(calls("power.surface.build")),
        "work.disk_stores_per_day": per_day(calls("harness.disk_cache.store")),
        "work.disk_loads_per_day": per_day(loads),
        "work.journal_appends_per_day": per_day(calls("service.journal.append")),
        "trace.unattributed_share": root_self / root_dur if root_dur else 0.0,
    }
