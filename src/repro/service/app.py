"""SolarCore-as-a-service: the asyncio HTTP + WebSocket application.

One long-running process serves many concurrent clients on top of the
existing harness — nothing about the simulation stack changed to make
this possible; the service is strictly a concurrency shell:

* **jobs** are submitted as JSON (the same config surface as
  :class:`~repro.harness.parallel.SweepTask`, including ``solver`` and
  ``faults``), tracked by the strict state machine of
  :mod:`repro.service.jobs`, and executed by one
  :class:`~repro.harness.runner.SimulationRunner` per (solver, chip) on
  one shared pool of ``max_workers`` compute threads — the event loop
  never runs a simulation inline;
* **identical work coalesces**: each task's full cache key is checked
  memory-tier first (cache-hit-first serving), and misses go through the
  :class:`~repro.service.coalesce.Coalescer`, so N concurrent requests
  for the same cell run exactly one compute with N fan-out responses;
* **telemetry streams live**: the PR 1 event stream (bridged off the
  compute threads by
  :class:`~repro.telemetry.async_sink.AsyncBridgeSink`) plus periodic
  metric/timer snapshots fan out to WebSocket subscribers through
  bounded drop-oldest queues — a slow client loses old messages, never
  stalls the service;
* **terminal states persist**: every finished/failed/cancelled job can
  record a PR 5 run-ledger manifest, so "what did the service run and
  from which cache tier" outlives the process;
* **acknowledged jobs survive ``kill -9``**: with ``journal_dir`` set,
  every submission and state change is fsynced to an append-only journal
  (:mod:`repro.service.journal`) *before* the response that reports it,
  and a restarted server replays the journal — queued jobs re-enqueue,
  jobs caught running are marked ``interrupted`` and retried (or failed,
  per the ``recover`` policy);
* **overload is a first-class answer**: a bounded queue (``max_queue``)
  turns excess submissions into ``429`` + ``Retry-After`` with a
  machine-readable envelope instead of unbounded memory growth, and a
  per-job ``deadline_s`` lands over-budget work in the terminal
  ``deadline_exceeded`` state with its compute truly cancelled;
* **shutdown is graceful**: :meth:`SolarCoreService.drain` (wired to
  SIGTERM/SIGINT by ``repro serve``) stops admission, fails readiness
  (``/readyz``) while liveness (``/healthz``) stays green, waits up to
  ``drain_timeout_s`` for in-flight jobs, journals the stragglers as
  ``interrupted``, and closes WebSocket clients with a 1001 going-away
  frame.

HTTP API (JSON in/out)::

    GET  /healthz                liveness (always "ok" while the loop runs)
    GET  /readyz                 readiness (503 once draining)
    GET  /stats                  jobs, coalescing, cache, stream counters
    GET  /jobs                   every job's status
    POST /jobs                   submit a job spec; ?wait=1 blocks to terminal
                                 (429 when the queue is full, 503 draining)
    GET  /jobs/<id>              one job's status
    POST /jobs/<id>/cancel       cancel (no-op if already terminal)
    GET  /ws/jobs/<id>           WebSocket: state changes until terminal
    GET  /ws/telemetry           WebSocket: live events + snapshots
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import struct
import time
import urllib.parse
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dataclass_fields

from repro.core.config import SolarCoreConfig
from repro.harness.runner import SimulationRunner
from repro.service import wsproto
from repro.service.coalesce import Coalescer
from repro.service.jobs import (
    CANCELLED,
    DEADLINE_EXCEEDED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobSpec,
    JobSpecError,
    JobTable,
)
from repro.service.journal import JobJournal
from repro.service.stream import ClientStream, StreamHub
from repro.telemetry import hub as telemetry_hub
from repro.telemetry.async_sink import AsyncBridgeSink
from repro.telemetry.hub import Telemetry

__all__ = [
    "SolarCoreService",
    "ServiceOverloaded",
    "ServiceDraining",
    "summarize_result",
]

log = logging.getLogger(__name__)

#: Result attributes surfaced in job summaries (fields *or* properties;
#: whichever of these a result type has is included).
_SUMMARY_ATTRS = (
    "ptp",
    "energy_utilization",
    "effective_duration_fraction",
    "mean_tracking_error",
    "solar_used_wh",
    "solar_available_wh",
    "utility_wh",
    "harvested_wh",
    "runtime_minutes",
    "tracking_events",
    "dvfs_transitions",
)


def summarize_result(task, result) -> dict:
    """A JSON-safe scalar summary of one task's day result.

    Time series stay server-side (they are large and cached); the summary
    carries the headline scalars plus every plain scalar field.
    """
    doc = {"task": task.describe()}
    scalar_fields = {
        f.name for f in dataclass_fields(result)
        if isinstance(getattr(result, f.name), (int, float, str, bool))
    }
    for name in sorted(scalar_fields):
        doc[name] = getattr(result, name)
    for name in _SUMMARY_ATTRS:
        value = getattr(result, name, None)
        if isinstance(value, (int, float, str, bool)):
            doc[name] = value
    return doc


class _HttpError(Exception):
    """Routed straight into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceOverloaded(RuntimeError):
    """The bounded job queue is full; try again after ``retry_after_s``."""

    def __init__(self, live_jobs: int, max_queue: int,
                 retry_after_s: float) -> None:
        super().__init__(
            f"job queue full ({live_jobs}/{max_queue} live jobs); "
            f"retry in ~{retry_after_s:.0f}s"
        )
        self.live_jobs = live_jobs
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


class ServiceDraining(RuntimeError):
    """The server is shutting down and no longer admits work."""


class SolarCoreService:
    """The long-running job server.

    Args:
        config: Base simulation configuration.  Its solver and chip are
            the defaults of jobs that name neither; a job's ``solver`` and
            ``chip`` fields override them per job (each (solver, chip)
            gets its own runner, since both are part of the cache
            identity).
        host / port: Bind address (port 0 = ephemeral, for tests).
        cache_dir: Shared persistent result cache for every runner.
            Server processes on one host that share it compute each key
            once, through the cache's compute lease.
        max_workers: Compute threads, shared by every runner.  Threads,
            not processes: results come back as live objects, each
            runner's memory memo is shared by every compute, and
            telemetry events reach the process-wide hub that streams
            them.
        client_queue_size: Per-WebSocket-client bounded queue capacity.
        snapshot_interval_s: Cadence of telemetry snapshots on the
            stream (0 disables them).
        runs_dir: Record a run-ledger manifest per terminal job under
            this directory (None disables the ledger).
        ws_max_size: Largest accepted WebSocket frame [bytes].
        max_queue: Bounded admission: at most this many live (non-
            terminal) jobs; excess submissions get a 429 with
            ``Retry-After``.  None = unbounded (the pre-durability
            behavior).
        journal_dir: Crash-safe job journal directory (None disables
            durability).  With it set, every acknowledged submission
            survives ``kill -9`` and is recovered on restart.
        recover: What happens to jobs found ``interrupted`` during
            journal replay: ``"retry"`` re-enqueues them, ``"fail"``
            fails them with an explanatory error.
        drain_timeout_s: Default budget :meth:`drain` waits for in-flight
            jobs before journaling them as ``interrupted``.
    """

    def __init__(
        self,
        config: SolarCoreConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        max_workers: int = 4,
        client_queue_size: int = 256,
        snapshot_interval_s: float = 1.0,
        runs_dir=None,
        ws_max_size: int = 1 << 20,
        max_queue: int | None = None,
        journal_dir=None,
        recover: str = "retry",
        drain_timeout_s: float = 10.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1 or None, got {max_queue}")
        if recover not in ("retry", "fail"):
            raise ValueError(f"recover must be 'retry' or 'fail', got {recover!r}")
        self.config = config or SolarCoreConfig()
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.max_workers = max_workers
        self.snapshot_interval_s = snapshot_interval_s
        self.ws_max_size = ws_max_size
        self.max_queue = max_queue
        self.recover = recover
        self.drain_timeout_s = drain_timeout_s
        self.table = JobTable()
        self.coalescer = Coalescer()
        self.stream_hub = StreamHub(client_queue_size=client_queue_size)
        self.journal: JobJournal | None = None
        if journal_dir is not None:
            self.journal = JobJournal(journal_dir)
        #: Replay/recovery report of the last :meth:`start` (None without
        #: a journal).
        self.recovery: dict | None = None
        #: Report of the completed :meth:`drain` (None until drained).
        self.drain_report: dict | None = None
        #: Admission counters for /stats.
        self.rejected_overload = 0
        self.rejected_draining = 0
        self.ledger = None
        if runs_dir is not None:
            from repro.harness.runledger import RunLedger

            self.ledger = RunLedger(runs_dir)
        self._draining = False
        self._runners: dict[tuple[str, str], SimulationRunner] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="solarcore-compute"
        )
        self._job_tasks: dict[str, asyncio.Task] = {}
        self._job_done: dict[str, asyncio.Event] = {}
        self._job_started_s: dict[str, float] = {}
        self._durations_s: deque[float] = deque(maxlen=32)
        self._job_streams: set[ClientStream] = set()
        self._server: asyncio.AbstractServer | None = None
        self._snapshot_task: asyncio.Task | None = None
        self._sink: AsyncBridgeSink | None = None
        self._previous_hub = None
        self._owns_hub = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Replay the journal, bind the server, arm the telemetry bridge.

        Recovery runs strictly before the socket binds: no client can
        observe (or submit into) a half-recovered table.
        """
        loop = asyncio.get_running_loop()
        hub = telemetry_hub.current()
        if not hub.enabled:
            # The service needs live counters (runner.computes, cache
            # tiers) and an event stream; install a hub for its lifetime
            # and restore whatever was there on close.
            hub = Telemetry()
            self._previous_hub = telemetry_hub.set_telemetry(hub)
            self._owns_hub = True
        self._sink = AsyncBridgeSink(loop, self._publish_event)
        hub.add_sink(self._sink)
        if self.journal is not None:
            self._recover()
        if self.snapshot_interval_s > 0:
            self._snapshot_task = loop.create_task(self._snapshot_loop())
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("solarcore service listening on %s:%d", self.host, self.port)

    def _recover(self) -> None:
        """Replay the journal into the table and relaunch recoverable jobs."""
        t0 = time.perf_counter()
        report = self.journal.replay()
        for job in report.jobs:
            self.table.restore(job)
        # Arm the observer only now: restores are already journaled, but
        # every recovery *transition* below must hit the journal again.
        self.table.observer = self._on_job_event
        requeued = failed = 0
        for job in report.jobs:
            if job.state == RUNNING:
                # The old process died holding this job.
                self.table.transition(job, INTERRUPTED)
            if job.state == INTERRUPTED:
                if self.recover == "retry":
                    self.table.transition(job, QUEUED)
                else:
                    failed += 1
                    self.table.transition(
                        job, FAILED,
                        error="interrupted by server crash (recover=fail)",
                    )
            if job.state == QUEUED:
                requeued += 1
                self._launch(job)
        self.recovery = {
            "jobs": len(report.jobs),
            "requeued": requeued,
            "failed": failed,
            "records": report.records,
            "corrupt_lines": report.corrupt_lines,
            "truncated_bytes": report.truncated_bytes,
            "replay_s": time.perf_counter() - t0,
        }
        # Compact the replayed history at once, so repeated crash/restart
        # cycles do not re-pay an ever-longer log.
        self.journal.compact(self.table.jobs())
        if report.jobs:
            log.info(
                "journal recovery: %d job(s) replayed, %d requeued, "
                "%d failed (%.3fs)",
                len(report.jobs), requeued, failed,
                self.recovery["replay_s"],
            )

    async def aclose(self) -> None:
        """Stop accepting, cancel live jobs, release the telemetry hub."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        for job_id, task in list(self._job_tasks.items()):
            job = self.table.get(job_id)
            if job.state in (QUEUED, RUNNING):
                # Drained (interrupted) jobs keep their state: the journal
                # already promised they will be recovered, not cancelled.
                self.table.cancel(job)
            task.cancel()
        if self._job_tasks:
            await asyncio.gather(
                *self._job_tasks.values(), return_exceptions=True
            )
        # A draining server cancels queued-but-unstarted computes, so a
        # backlog cannot hold the process past its drain deadline; threads
        # already inside a simulation run to completion either way.
        await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: self._pool.shutdown(wait=True, cancel_futures=self._draining),
        )
        self.stream_hub.close()
        for stream in list(self._job_streams):
            stream.close()
        if self.journal is not None:
            self.journal.close()
        hub = telemetry_hub.current()
        if self._sink is not None:
            self._sink.close()
            if hub.enabled and self._sink in getattr(hub, "sinks", []):
                hub.sinks.remove(self._sink)
            self._sink = None
        if self._owns_hub:
            telemetry_hub.set_telemetry(self._previous_hub)
            self._owns_hub = False

    async def __aenter__(self) -> SolarCoreService:
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's ``repro serve`` loop)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------
    def _runner(self, solver: str, chip: str) -> SimulationRunner:
        """The per-(solver, chip) runner.

        Both axes are part of the runner's cache identity, so jobs that
        differ in either get separate runners (and never false-coalesce).
        """
        base = self.config
        key = (solver, chip)
        runner = self._runners.get(key)
        if runner is None:
            config = (
                base
                if base.solver == solver and base.chip_spec == chip
                else SolarCoreConfig(**{
                    **{f.name: getattr(base, f.name)
                       for f in dataclass_fields(base)},
                    "solver": solver,
                    "chip_spec": chip,
                })
            )
            runner = SimulationRunner(config, cache_dir=self.cache_dir)
            self._runners[key] = runner
        return runner

    def _on_job_event(self, event: str, job: Job) -> None:
        """``JobTable`` observer: journal first, then maybe compact.

        Called synchronously inside ``create``/``transition``, i.e.
        strictly before the HTTP response that reports the change — this
        ordering *is* the write-ahead acknowledgment guarantee.
        """
        try:
            self.journal.observer(event, job)
            self.journal.maybe_compact(self.table.jobs())
        except Exception:  # noqa: BLE001 — a sick disk must not wedge the table
            log.exception("journal append failed for %s (%s)", job.job_id, event)

    @property
    def live_jobs(self) -> int:
        """Jobs admitted but not yet terminal (the admission meter)."""
        return len(self._job_tasks)

    def _retry_after_s(self) -> float:
        """Honest Retry-After estimate from recent job durations."""
        if not self._durations_s:
            return 1.0
        mean = sum(self._durations_s) / len(self._durations_s)
        # One queue slot frees roughly every mean/(worker) seconds.
        return float(max(1, math.ceil(mean / max(1, self.max_workers))))

    def submit(self, spec: JobSpec) -> Job:
        """Register and launch a job (event-loop only).

        Raises:
            ServiceDraining: The server no longer admits work.
            ServiceOverloaded: ``max_queue`` live jobs already exist; the
                exception carries an honest ``retry_after_s``.
        """
        if self._draining:
            self.rejected_draining += 1
            raise ServiceDraining("server is draining; submit elsewhere")
        if self.max_queue is not None and self.live_jobs >= self.max_queue:
            self.rejected_overload += 1
            raise ServiceOverloaded(
                self.live_jobs, self.max_queue, self._retry_after_s()
            )
        job = self.table.create(spec)
        self._launch(job)
        return job

    def _launch(self, job: Job) -> None:
        """Start (or, after recovery, restart) a queued job's task."""
        self._job_done[job.job_id] = asyncio.Event()
        self._job_started_s[job.job_id] = time.perf_counter()
        self._job_tasks[job.job_id] = asyncio.get_running_loop().create_task(
            self._run_job(job)
        )

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if this call cancelled it (event-loop only)."""
        job = self.table.get(job_id)
        cancelled = self.table.cancel(job)
        if cancelled:
            task = self._job_tasks.get(job_id)
            if task is not None:
                task.cancel()
        return cancelled

    async def wait_terminal(self, job_id: str) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.table.get(job_id)
        event = self._job_done.get(job_id)
        if event is not None:
            await event.wait()
        return job

    async def _run_job(self, job: Job) -> None:
        try:
            self.table.transition(job, RUNNING)
            if job.spec.deadline_s is not None:
                try:
                    summary = await asyncio.wait_for(
                        self._execute(job), job.spec.deadline_s
                    )
                except asyncio.TimeoutError:
                    # wait_for cancelled _execute, which hard-released its
                    # coalescer entries: unstarted computes never run.
                    if job.state in (QUEUED, RUNNING):
                        self.table.transition(
                            job, DEADLINE_EXCEEDED,
                            error=f"deadline of {job.spec.deadline_s}s exceeded",
                        )
                    return
            else:
                summary = await self._execute(job)
            self.table.transition(job, DONE, result=summary)
        except asyncio.CancelledError:
            # Normal path: self.cancel() already moved the job to
            # cancelled before cancelling this task.  Drain path: the job
            # was journaled as interrupted and must keep that state.
            if job.state in (QUEUED, RUNNING):
                self.table.transition(job, CANCELLED)
            raise
        except Exception as exc:  # noqa: BLE001 — any failure fails the job
            log.warning("job %s failed: %s", job.job_id, exc)
            if job.state not in TERMINAL_STATES:
                self.table.transition(
                    job, FAILED, error=f"{type(exc).__name__}: {exc}"
                )
        finally:
            self._finish_job(job)

    async def _execute(self, job: Job) -> list[dict]:
        """Run every task of ``job`` through the coalescer; returns summaries."""
        runner = self._runner(job.spec.solver, job.spec.chip)
        loop = asyncio.get_running_loop()
        # Deadline jobs hard-release: their cancellation must truly stop
        # queued work.  Ordinary cancellations keep the warm-the-cache
        # orphan semantics.
        hard = job.spec.deadline_s is not None
        acquired: list[tuple] = []  # (task, entry, start) not yet awaited
        try:
            results: dict = {}
            for task in job.spec.tasks:
                cached = runner.peek_memory(task)
                if cached is not None:
                    # Cache-hit-first: answered inline, no executor hop.
                    job.cache_hits += 1
                    results[task] = cached
                    continue
                start = lambda task=task: loop.run_in_executor(  # noqa: E731
                    self._pool, runner.run_task, task
                )
                entry, attached = self.coalescer.acquire(
                    runner.cache_key(task), start
                )
                if attached:
                    job.coalesced += 1
                acquired.append((task, entry, start))
            while acquired:
                task, entry, start = acquired.pop(0)
                # wait() releases the entry however the await ends, and
                # re-elects a new leader if the current one's task dies.
                results[task] = await self.coalescer.wait(
                    entry, start, hard=hard
                )
            return [
                summarize_result(task, results[task])
                for task in job.spec.tasks
            ]
        finally:
            for _task, entry, _start in acquired:
                self.coalescer.release(entry, hard=hard)

    async def drain(self, timeout: float | None = None) -> dict:
        """Graceful shutdown, phase one: stop admitting, settle in-flight.

        * Readiness (``/readyz``) starts failing immediately; liveness
          stays green so orchestrators do not kill a draining process.
        * In-flight jobs get ``timeout`` (default ``drain_timeout_s``)
          to finish.
        * Stragglers are journaled as ``interrupted`` (so a successor
          process recovers them) and their tasks cancelled; without a
          journal they are plainly cancelled.
        * Every WebSocket client is closed with 1001 (going away).

        Idempotent; returns a report dict (also kept as
        :attr:`drain_report`).  Call :meth:`aclose` afterwards.
        """
        if self.drain_report is not None:
            return self.drain_report
        self._draining = True
        if timeout is None:
            timeout = self.drain_timeout_s
        t0 = time.perf_counter()
        tasks = list(self._job_tasks.values())
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=timeout)
        else:
            done, pending = set(), set()
        interrupted = cancelled = 0
        if pending:
            for job_id, task in list(self._job_tasks.items()):
                if task.done():
                    continue
                job = self.table.get(job_id)
                if self.journal is not None and job.state == RUNNING:
                    # Journaled before the cancel below: the successor
                    # process owes these jobs a retry.
                    self.table.transition(job, INTERRUPTED)
                    interrupted += 1
                elif job.state in (QUEUED, RUNNING):
                    cancelled += 1
                task.cancel()
            await asyncio.gather(
                *[t for t in self._job_tasks.values()], return_exceptions=True
            )
        self.stream_hub.close(1001, b"server draining")
        for stream in list(self._job_streams):
            stream.close(1001, b"server draining")
        if self.journal is not None:
            try:
                self.journal.compact(self.table.jobs())
            except Exception:  # noqa: BLE001
                log.exception("journal compaction during drain failed")
        self.drain_report = {
            "drained": len(done),
            "interrupted": interrupted,
            "cancelled": cancelled,
            "duration_s": time.perf_counter() - t0,
            "timed_out": bool(pending),
        }
        log.info("drain complete: %s", self.drain_report)
        return self.drain_report

    def _finish_job(self, job: Job) -> None:
        """Terminal bookkeeping: wake waiters, record the ledger manifest."""
        self._job_tasks.pop(job.job_id, None)
        started = self._job_started_s.pop(job.job_id, None)
        if started is not None:
            self._durations_s.append(time.perf_counter() - started)
        # Waiters already hold the event; wait_terminal on a job without
        # one returns at once.
        event = self._job_done.pop(job.job_id, None)
        if event is not None:
            event.set()
        if self.ledger is None:
            return
        try:
            from repro.harness.runledger import build_manifest

            duration = (
                time.perf_counter() - started if started is not None else None
            )
            runner = self._runner(job.spec.solver, job.spec.chip)
            manifest = build_manifest(
                "service-job",
                [],
                config=runner.config,
                faults=None,
                jobs=runner.jobs,
                duration_s=duration,
                extra={
                    "job_id": job.job_id,
                    "state": job.state,
                    "label": job.spec.label,
                    "spec": job.spec.describe(),
                    "tasks": len(job.spec.tasks),
                    "cache_hits": job.cache_hits,
                    "coalesced": job.coalesced,
                    "error": job.error,
                },
            )
            self.ledger.record(manifest)
        except Exception:  # noqa: BLE001 — provenance must not kill serving
            log.exception("could not record ledger manifest for %s", job.job_id)

    # ------------------------------------------------------------------
    # Live streaming
    # ------------------------------------------------------------------
    def _publish_event(self, payload: dict) -> None:
        """Loop-side callback of the telemetry bridge sink."""
        self.stream_hub.publish({"type": "event", "event": payload})

    def _snapshot_message(self) -> dict:
        hub = telemetry_hub.current()
        snap = hub.snapshot() if hub.enabled else {}
        message = {
            "type": "snapshot",
            "counters": snap.get("counters", {}),
            "jobs": self.table.counts(),
            "coalesce": self.coalescer.stats(),
            "stream": self.stream_hub.stats(),
        }
        timers = snap.get("timers")
        if timers:
            message["timers"] = {
                name: {"count": data["count"], "total_s": data["total"]}
                for name, data in timers.items()
            }
        return message

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval_s)
            if len(self.stream_hub._clients):
                self.stream_hub.publish(self._snapshot_message())

    def stats(self) -> dict:
        """The ``/stats`` document."""
        doc = {
            "jobs": self.table.counts(),
            "transitions": dict(self.table.transitions),
            "coalesce": self.coalescer.stats(),
            "stream": self.stream_hub.stats(),
            "admission": {
                "live_jobs": self.live_jobs,
                "max_queue": self.max_queue,
                "draining": self._draining,
                "rejected_overload": self.rejected_overload,
                "rejected_draining": self.rejected_draining,
            },
            "runners": {
                f"{solver}/{chip}": runner.stats()
                for (solver, chip), runner in sorted(self._runners.items())
            },
        }
        if self.journal is not None:
            doc["journal"] = self.journal.stats()
        if self.recovery is not None:
            doc["recovery"] = self.recovery
        if self.drain_report is not None:
            doc["drain"] = self.drain_report
        hub = telemetry_hub.current()
        if hub.enabled:
            counters = hub.snapshot().get("counters", {})
            doc["counters"] = {
                name: counters[name]
                for name in sorted(counters)
                if name.startswith(("runner.", "cache.", "service."))
            }
        return doc

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, headers, body = await self._read_request(
                    reader
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except _HttpError as exc:
                await self._respond_error(writer, exc.status, str(exc))
                return
            try:
                await self._route(
                    method, path, query, headers, body, reader, writer
                )
            except _HttpError as exc:
                await self._respond_error(writer, exc.status, str(exc))
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            except Exception as exc:  # noqa: BLE001 — one conn must not kill serving
                log.exception("unhandled error serving %s %s", method, path)
                try:
                    await self._respond_error(
                        writer, 500, f"{type(exc).__name__}: {exc}"
                    )
                except (ConnectionError, RuntimeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        parsed = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(parsed.query))
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64 or len(line) > 8192:
                raise _HttpError(431, "too many / too large headers")
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
            if n > self.ws_max_size:
                raise _HttpError(413, f"body of {n} bytes is too large")
            body = await reader.readexactly(n)
        return method.upper(), parsed.path, query, headers, body

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, doc: dict, *,
        reason: str = "OK", headers: dict[str, str] | None = None,
    ) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._respond_json(
            writer, status, {"error": message}, reason="Error"
        )

    async def _route(
        self, method, path, query, headers, body, reader, writer
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"] and method == "GET":
            # Liveness: stays "ok" for the whole process lifetime (even
            # while draining) — orchestrators must not kill a drainer.
            await self._respond_json(writer, 200, {"status": "ok"})
        elif parts == ["readyz"] and method == "GET":
            if self._draining:
                await self._respond_json(
                    writer, 503,
                    {"status": "draining", "ready": False},
                    reason="Service Unavailable",
                )
            else:
                await self._respond_json(
                    writer, 200, {"status": "ok", "ready": True}
                )
        elif parts == ["stats"] and method == "GET":
            await self._respond_json(writer, 200, self.stats())
        elif parts == ["jobs"] and method == "GET":
            await self._respond_json(
                writer, 200, {"jobs": [j.status() for j in self.table.jobs()]}
            )
        elif parts == ["jobs"] and method == "POST":
            await self._handle_submit(query, body, writer)
        elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            job = self._job_or_404(parts[1])
            await self._respond_json(writer, 200, job.status())
        elif (
            len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel"
            and method == "POST"
        ):
            job = self._job_or_404(parts[1])
            cancelled = self.cancel(job.job_id)
            await self._respond_json(
                writer, 200, {"cancelled": cancelled, **job.status()}
            )
        elif len(parts) == 3 and parts[0] == "ws" and parts[1] == "jobs":
            job = self._job_or_404(parts[2])
            await self._handle_ws(
                headers, reader, writer, lambda: self._job_stream(job)
            )
        elif parts == ["ws", "telemetry"]:
            await self._handle_ws(
                headers, reader, writer, self._telemetry_stream
            )
        else:
            raise _HttpError(404, f"no route for {method} {path}")

    def _job_or_404(self, job_id: str) -> Job:
        try:
            return self.table.get(job_id)
        except KeyError as exc:
            raise _HttpError(404, str(exc)) from None

    async def _handle_submit(self, query, body, writer) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from None
        if isinstance(doc, dict):
            # A job naming no solver or chip runs on the server's; the
            # spec (and so the journal) keeps the filled-in values.
            doc = {"solver": self.config.solver,
                   "chip": self.config.chip_spec, **doc}
        try:
            spec = JobSpec.from_dict(doc)
        except JobSpecError as exc:
            raise _HttpError(422, str(exc)) from None
        try:
            job = self.submit(spec)
        except ServiceOverloaded as exc:
            await self._respond_json(
                writer, 429,
                {
                    "error": str(exc),
                    "code": "overloaded",
                    "live_jobs": exc.live_jobs,
                    "max_queue": exc.max_queue,
                    "retry_after_s": exc.retry_after_s,
                },
                reason="Too Many Requests",
                headers={"Retry-After": f"{exc.retry_after_s:.0f}"},
            )
            return
        except ServiceDraining as exc:
            await self._respond_json(
                writer, 503,
                {"error": str(exc), "code": "draining"},
                reason="Service Unavailable",
            )
            return
        if query.get("wait") in ("1", "true", "yes"):
            await self.wait_terminal(job.job_id)
            await self._respond_json(writer, 200, job.status())
        else:
            await self._respond_json(writer, 202, job.status(), reason="Accepted")

    # ------------------------------------------------------------------
    # WebSocket endpoints
    # ------------------------------------------------------------------
    async def _handle_ws(self, headers, reader, writer, open_stream) -> None:
        """Upgrade the connection, then pump ``open_stream()`` to the peer."""
        if headers.get("upgrade", "").lower() != "websocket":
            raise _HttpError(426, "this endpoint speaks WebSocket; send an Upgrade")
        key = headers.get("sec-websocket-key")
        if not key:
            raise _HttpError(400, "missing Sec-WebSocket-Key")
        accept = wsproto.accept_key(key)
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()
        stream, cleanup = open_stream()
        reader_task = asyncio.get_running_loop().create_task(
            self._ws_reader(reader, writer, stream)
        )
        try:
            while True:
                message = await stream.get()
                if message is None:
                    break
                writer.write(wsproto.encode_frame(
                    wsproto.OP_TEXT,
                    json.dumps(message, sort_keys=True).encode("utf-8"),
                ))
                await writer.drain()
                if message.get("type") == "job" and (
                    message.get("state") in TERMINAL_STATES
                ):
                    break
            payload = b""
            if stream.close_code is not None:
                # e.g. 1001 "going away" during drain, so clients know to
                # reconnect elsewhere rather than retry here.
                payload = struct.pack("!H", stream.close_code) + stream.close_reason
            writer.write(wsproto.encode_frame(wsproto.OP_CLOSE, payload))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            cleanup()

    async def _ws_reader(self, reader, writer, stream) -> None:
        """Drain client frames: answer pings, honor close, ignore data."""
        try:
            while True:
                opcode, payload = await wsproto.read_frame(
                    reader, max_size=self.ws_max_size
                )
                if opcode == wsproto.OP_CLOSE:
                    stream.close()
                    return
                if opcode == wsproto.OP_PING:
                    writer.write(
                        wsproto.encode_frame(wsproto.OP_PONG, payload)
                    )
                    await writer.drain()
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            wsproto.WSProtocolError,
        ):
            stream.close()

    def _telemetry_stream(self):
        """Stream + cleanup for ``/ws/telemetry``."""
        stream = self.stream_hub.subscribe()
        stream.push(self._snapshot_message())
        return stream, lambda: self.stream_hub.unsubscribe(stream)

    def _job_stream(self, job: Job):
        """Stream + cleanup for ``/ws/jobs/<id>``.

        Subscribes *before* reading the current state, so a transition
        can never fall between the snapshot and the live feed; the
        table's subscribe-after-terminal guarantee covers finished jobs.
        """
        stream = ClientStream(self.stream_hub.client_queue_size)
        self._job_streams.add(stream)
        sub = self.table.subscribe(job.job_id)
        sub.listener = stream.push
        delivered_terminal = False
        for notification in sub.drain():
            stream.push(notification)
            delivered_terminal = True
        if not delivered_terminal:
            stream.push({"type": "job", **job.status()})

        def cleanup() -> None:
            self.table.unsubscribe(sub)
            self._job_streams.discard(stream)
            stream.close()

        return stream, cleanup
