"""Crash-safe job journal: append-only JSONL + atomic snapshot compaction.

The durability contract the service builds on:

* **Write-ahead acknowledgment.**  Every submission and every state
  transition is appended (and, by default, ``fsync``\\ ed) *before* the
  HTTP response that reports it leaves the process.  If a client holds a
  202 for a job, that job survives ``kill -9``.
* **Append-only.**  The journal file (``journal.jsonl``) only ever grows
  between compactions; a crash can at worst leave one torn line at the
  tail.
* **Loud, bounded truncation.**  On replay, a corrupt record *at the
  tail* is truncated (with a warning) — that is the torn-write case and
  losing an un-acknowledged suffix is correct.  Corruption *before* valid
  records is also reported, but replay keeps every record it can parse.
* **Atomic compaction.**  A snapshot (``snapshot.json``) is written to a
  temp file, fsynced, and ``os.replace``\\ d into place before the journal
  is truncated, so every instant in time has a complete recovery set:
  either (old snapshot + full journal) or (new snapshot + empty journal).

Record shapes (one JSON object per line)::

    {"op": "submit", "job_id": "job-000001", "spec": {...}}
    {"op": "state", "job_id": "job-000001", "state": "running", ...}

The snapshot is ``{"format": 1, "next_id": N, "jobs": [job docs]}``.

Replay (:meth:`JobJournal.replay`) rebuilds :class:`~repro.service.jobs.Job`
objects by re-parsing each spec through :meth:`JobSpec.from_dict` — the
same validation path a live submission takes.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.atomicio import write_atomic
from repro.service.jobs import JOB_STATES, Job, JobSpec, JobSpecError

__all__ = ["JournalCorruption", "ReplayReport", "JobJournal"]

#: Bumped when a record/snapshot shape change breaks old readers.
JOURNAL_FORMAT = 1


class JournalCorruption(UserWarning):
    """A journal or snapshot record could not be used; the message says why."""


@dataclass
class ReplayReport:
    """Everything :meth:`JobJournal.replay` reconstructed and discarded."""

    #: Reconstructed jobs, submission order preserved.
    jobs: list[Job] = field(default_factory=list)
    #: The id counter floor (1 + highest replayed id suffix).
    next_id: int = 1
    #: How many journal records were applied.
    records: int = 0
    #: How many unusable lines were dropped (torn tail, bad JSON, bad spec).
    corrupt_lines: int = 0
    #: Bytes trimmed off the journal tail (0 when the tail was clean).
    truncated_bytes: int = 0
    #: True when ``snapshot.json`` existed but could not be parsed.
    corrupt_snapshot: bool = False


class JobJournal:
    """The service's durable job log, bound to one directory.

    Args:
        root: Directory holding ``journal.jsonl`` + ``snapshot.json``
            (created if missing).
        fsync: Force every append to stable storage before returning.
            Leave on in production — it *is* the acknowledgment
            guarantee; tests may turn it off for speed.
        compact_every: Appends between automatic compactions (the service
            calls :meth:`maybe_compact` after each append).
    """

    def __init__(self, root: str | os.PathLike, *, fsync: bool = True,
                 compact_every: int = 1024) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self.fsync = fsync
        self.compact_every = max(1, int(compact_every))
        self.appends = 0
        self.compactions = 0
        self._since_compact = 0
        self._fh = None

    # -- appending -------------------------------------------------------
    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict) -> None:
        """Write one record and (by default) force it to stable storage."""
        fh = self._handle()
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self.appends += 1
        self._since_compact += 1

    def record_submit(self, job: Job) -> None:
        self.append({
            "op": "submit", "job_id": job.job_id,
            "spec": job.spec.to_dict(),
        })

    def record_state(self, job: Job) -> None:
        record = {"op": "state", "job_id": job.job_id, "state": job.state}
        if job.error is not None:
            record["error"] = job.error
        if job.cache_hits:
            record["cache_hits"] = job.cache_hits
        if job.coalesced:
            record["coalesced"] = job.coalesced
        # Results are served from the disk cache after recovery; persisting
        # per-task summaries here would bloat the journal for no new truth.
        self.append(record)

    def observer(self, event: str, job: Job) -> None:
        """``JobTable`` observer adapter: journal every submit/transition."""
        if event == "submit":
            self.record_submit(job)
        else:
            self.record_state(job)

    # -- replay ----------------------------------------------------------
    def replay(self) -> ReplayReport:
        """Rebuild job state from snapshot + journal, trimming a torn tail."""
        report = ReplayReport()
        jobs: dict[str, Job] = {}
        self._load_snapshot(jobs, report)
        self._replay_journal(jobs, report)
        report.jobs = list(jobs.values())
        for job in report.jobs:
            suffix = job.job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                report.next_id = max(report.next_id, int(suffix) + 1)
        return report

    def _load_snapshot(self, jobs: dict[str, Job], report: ReplayReport) -> None:
        if not self.snapshot_path.exists():
            return
        try:
            doc = json.loads(self.snapshot_path.read_text(encoding="utf-8"))
            if doc.get("format") != JOURNAL_FORMAT:
                raise ValueError(f"unknown snapshot format {doc.get('format')!r}")
            for job_doc in doc["jobs"]:
                job = self._job_from_doc(job_doc)
                jobs[job.job_id] = job
            report.next_id = max(report.next_id, int(doc.get("next_id", 1)))
        except (ValueError, KeyError, TypeError, OSError, JobSpecError) as exc:
            report.corrupt_snapshot = True
            jobs.clear()
            warnings.warn(
                f"{self.snapshot_path}: unusable snapshot ({exc}); "
                "recovering from the journal alone",
                JournalCorruption, stacklevel=3,
            )

    def _replay_journal(self, jobs: dict[str, Job], report: ReplayReport) -> None:
        if not self.journal_path.exists():
            return
        good_end = 0
        with open(self.journal_path, "rb") as fh:
            offset = 0
            for raw in fh:
                offset += len(raw)
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    good_end = offset
                    continue
                try:
                    record = json.loads(line)
                    self._apply(record, jobs)
                except (ValueError, KeyError, TypeError, JobSpecError) as exc:
                    report.corrupt_lines += 1
                    warnings.warn(
                        f"{self.journal_path}: dropping unusable record "
                        f"at byte {offset - len(raw)} ({exc}): {line[:120]!r}",
                        JournalCorruption, stacklevel=3,
                    )
                else:
                    report.records += 1
                    good_end = offset
        size = self.journal_path.stat().st_size
        if good_end < size:
            # Torn tail from a crash mid-append: trim it so the next
            # append starts on a clean line boundary.
            report.truncated_bytes = size - good_end
            warnings.warn(
                f"{self.journal_path}: truncating {report.truncated_bytes} "
                f"byte(s) of torn tail after byte {good_end}",
                JournalCorruption, stacklevel=3,
            )
            with open(self.journal_path, "r+b") as fh:
                fh.truncate(good_end)

    def _apply(self, record: dict, jobs: dict[str, Job]) -> None:
        op = record["op"]
        job_id = record["job_id"]
        if op == "submit":
            spec = JobSpec.from_dict(record["spec"])
            jobs[job_id] = Job(job_id=job_id, spec=spec)
        elif op == "state":
            job = jobs[job_id]  # KeyError -> counted as corrupt
            state = record["state"]
            if state not in JOB_STATES:
                raise ValueError(f"unknown state {state!r}")
            job.state = state
            job.error = record.get("error", job.error)
            job.cache_hits = record.get("cache_hits", job.cache_hits)
            job.coalesced = record.get("coalesced", job.coalesced)
        else:
            raise ValueError(f"unknown op {op!r}")

    def _job_from_doc(self, doc: dict) -> Job:
        state = doc["state"]
        if state not in JOB_STATES:
            raise ValueError(f"unknown state {state!r}")
        return Job(
            job_id=doc["job_id"],
            spec=JobSpec.from_dict(doc["spec"]),
            state=state,
            error=doc.get("error"),
            cache_hits=doc.get("cache_hits", 0),
            coalesced=doc.get("coalesced", 0),
        )

    # -- compaction ------------------------------------------------------
    def compact(self, jobs: list[Job], next_id: int) -> None:
        """Fold the journal into an atomic snapshot and start a fresh log.

        Write order is the whole safety argument: the new snapshot is
        durable *before* the journal is truncated, so a crash at any
        point leaves either (old snapshot + full journal) or (new
        snapshot + empty journal) — both complete.
        """
        doc = {
            "format": JOURNAL_FORMAT,
            "next_id": int(next_id),
            "jobs": [
                {
                    "job_id": job.job_id,
                    "spec": job.spec.to_dict(),
                    "state": job.state,
                    **({"error": job.error} if job.error is not None else {}),
                    **({"cache_hits": job.cache_hits} if job.cache_hits else {}),
                    **({"coalesced": job.coalesced} if job.coalesced else {}),
                }
                for job in jobs
            ],
        }
        write_atomic(
            self.snapshot_path, json.dumps(doc, sort_keys=True), prefix="snapshot-"
        )
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
            self._fh = None
        with open(self.journal_path, "w", encoding="utf-8"):
            pass
        self.compactions += 1
        self._since_compact = 0

    def maybe_compact(self, jobs: list[Job], next_id: int) -> bool:
        """Compact when ``compact_every`` appends have accumulated."""
        if self._since_compact < self.compact_every:
            return False
        self.compact(jobs, next_id)
        return True

    # -- bookkeeping -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "appends": self.appends,
            "compactions": self.compactions,
            "journal_bytes": (
                self.journal_path.stat().st_size
                if self.journal_path.exists() else 0
            ),
        }

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None
