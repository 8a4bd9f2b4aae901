"""Crash-safe job journal: one append-only JSONL file that compacts into itself.

The durability contract the service builds on:

* **Write-ahead acknowledgment.**  Every submission and every state
  transition is appended and ``fsync``\\ ed *before* the HTTP response
  that reports it leaves the process.  If a client holds a 202 for a job,
  that job survives ``kill -9``.
* **Append-only.**  The journal file (``journal.jsonl``) only ever grows
  between compactions; a crash can at worst leave one torn line at the
  tail.
* **Loud, bounded truncation.**  On replay, a torn write *at the tail*
  (a last line without its newline, or bytes that do not parse as JSON)
  is truncated with a warning: losing an un-acknowledged suffix is
  correct.  Corruption *before* valid records is also reported, but
  replay keeps every record it can parse.  A whole JSON line that does
  not apply (an unknown op or state, say from a newer server) is
  reported and kept on disk, never truncated.
* **Atomic compaction.**  Compaction writes the shortest journal that
  replays to the same jobs and :func:`~repro.atomicio.write_atomic`\\ s
  it over ``journal.jsonl`` in one rename, so every instant in time has
  one complete journal: the full log or its compacted form.

Record shapes (one JSON object per line)::

    {"op": "submit", "job_id": "job-000001", "spec": {...}}
    {"op": "state", "job_id": "job-000001", "state": "running", ...}

A compacted journal holds one ``submit`` line per job that also carries
the job's state record: ``state``, plus ``error``, ``cache_hits`` and
``coalesced`` when they are set.

Replay (:meth:`JobJournal.replay`) rebuilds :class:`~repro.service.jobs.Job`
objects by re-parsing each spec through :meth:`JobSpec.from_dict` — the
same validation path a live submission takes.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.atomicio import remove_orphaned_temps, write_atomic
from repro.service.jobs import JOB_STATES, Job, JobSpec, JobSpecError

__all__ = ["JournalCorruption", "ReplayReport", "JobJournal"]

#: One encoder for every journal line (``json.dumps`` builds one per call).
_encode = json.JSONEncoder(sort_keys=True).encode


class JournalCorruption(UserWarning):
    """A journal record could not be used; the message says why."""


@dataclass
class ReplayReport:
    """Everything :meth:`JobJournal.replay` reconstructed and discarded."""

    #: Reconstructed jobs, submission order preserved.
    jobs: list[Job] = field(default_factory=list)
    #: How many journal records were applied.
    records: int = 0
    #: How many unusable lines were dropped (torn tail, bad JSON, bad spec).
    corrupt_lines: int = 0
    #: Bytes trimmed off the journal tail (0 when the tail was clean).
    truncated_bytes: int = 0


def _submit_record(job: Job) -> dict:
    return {"op": "submit", "job_id": job.job_id, "spec": job.spec.to_dict()}


def _state_record(job: Job) -> dict:
    record = {"op": "state", "job_id": job.job_id, "state": job.state}
    if job.error is not None:
        record["error"] = job.error
    if job.cache_hits:
        record["cache_hits"] = job.cache_hits
    if job.coalesced:
        record["coalesced"] = job.coalesced
    # Results are served from the disk cache after recovery; persisting
    # per-task summaries here would bloat the journal for no new truth.
    return record


class JobJournal:
    """The service's durable job log, bound to one directory.

    ``journal.jsonl`` is the only job-state file: every append is fsynced
    before it returns (that *is* the acknowledgment guarantee), and
    compaction rewrites the file in place.  Opening the journal removes
    compaction temps that a killed server left behind
    (:func:`~repro.atomicio.remove_orphaned_temps`).

    Args:
        root: Directory holding ``journal.jsonl`` (created if missing).
        compact_every: Appends between automatic compactions (the service
            calls :meth:`maybe_compact` after each append).
    """

    def __init__(self, root: str | os.PathLike, *, compact_every: int = 1024) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        remove_orphaned_temps(self.root, ("journal-*.tmp",))
        self.journal_path = self.root / "journal.jsonl"
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
        """Write one record and force it to stable storage."""
        fh = self._handle()
        fh.write(_encode(record) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
        self.appends += 1
        self._since_compact += 1

    def observer(self, event: str, job: Job) -> None:
        """``JobTable`` observer adapter: journal every submit/transition."""
        self.append(_submit_record(job) if event == "submit" else _state_record(job))

    # -- replay ----------------------------------------------------------
    def replay(self) -> ReplayReport:
        """Rebuild job state from the journal, trimming a torn tail."""
        # Older servers kept compacted jobs in this file.  Nothing reads
        # it now, so say so rather than drop those jobs without a word.
        old_snapshot = self.root / "snapshot.json"
        if old_snapshot.exists():
            warnings.warn(
                f"{old_snapshot}: left by an older server and not read; "
                "the jobs it holds are not recovered",
                JournalCorruption, stacklevel=2,
            )
        report = ReplayReport()
        if not self.journal_path.exists():
            return report
        jobs: dict[str, Job] = {}
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
                    if not raw.endswith(b"\n"):
                        raise ValueError("no line end")
                    record = json.loads(line)
                    # A whole line stays on disk even if it does not apply:
                    # only a torn write is truncated.
                    good_end = offset
                    self._apply(record, jobs)
                except (ValueError, KeyError, TypeError, JobSpecError) as exc:
                    report.corrupt_lines += 1
                    warnings.warn(
                        f"{self.journal_path}: dropping unusable record "
                        f"at byte {offset - len(raw)} ({exc}): {line[:120]!r}",
                        JournalCorruption, stacklevel=2,
                    )
                else:
                    report.records += 1
        report.jobs = list(jobs.values())
        size = self.journal_path.stat().st_size
        if good_end < size:
            # Torn tail from a crash mid-append: trim it so the next
            # append starts on a clean line boundary.
            report.truncated_bytes = size - good_end
            warnings.warn(
                f"{self.journal_path}: truncating {report.truncated_bytes} "
                f"byte(s) of torn tail after byte {good_end}",
                JournalCorruption, stacklevel=2,
            )
            with open(self.journal_path, "r+b") as fh:
                fh.truncate(good_end)
        return report

    def _apply(self, record: dict, jobs: dict[str, Job]) -> None:
        """Apply one record; raise (and change nothing) if it is unusable."""
        op = record["op"]
        job_id = record["job_id"]
        if op == "submit":
            job = Job(job_id=job_id, spec=JobSpec.from_dict(record["spec"]))
            state = record.get("state")
        elif op == "state":
            job = jobs[job_id]  # KeyError -> counted as corrupt
            state = record["state"]
        else:
            raise ValueError(f"unknown op {op!r}")
        if state is not None:
            if state not in JOB_STATES:
                raise ValueError(f"unknown state {state!r}")
            job.state = state
            job.error = record.get("error", job.error)
            job.cache_hits = record.get("cache_hits", job.cache_hits)
            job.coalesced = record.get("coalesced", job.coalesced)
        jobs[job_id] = job

    # -- compaction ------------------------------------------------------
    def compact(self, jobs: list[Job]) -> None:
        """Rewrite the journal as one ``submit`` line per job, in one rename.

        Each line is the job's state record with ``op`` set to ``submit``
        and its spec added, so the compacted file replays to the same jobs
        as the log it replaces.  The append handle is closed first (it
        would otherwise keep writing to the replaced file); the next
        append reopens the compacted one.
        """
        lines = []
        for job in jobs:
            record = _state_record(job)
            record["op"] = "submit"
            record["spec"] = job.spec.to_dict()
            lines.append(_encode(record))
        lines.append("")  # end the last line
        self.close()
        write_atomic(self.journal_path, "\n".join(lines), prefix="journal-")
        self.compactions += 1
        self._since_compact = 0

    def maybe_compact(self, jobs: Callable[[], list[Job]]) -> bool:
        """Compact when ``compact_every`` appends have accumulated.

        ``jobs`` returns every job; it is called only when a compaction is
        due, so an append does not copy the job table.
        """
        if self._since_compact < self.compact_every:
            return False
        self.compact(jobs())
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
