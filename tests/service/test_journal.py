"""The crash-safe job journal: round-trip, torn tails, compaction."""

from __future__ import annotations

import json
import logging
import os
import time

import pytest

from repro.atomicio import ORPHAN_AGE_S
from repro.harness.parallel import SweepTask
from repro.service.jobs import (
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    Job,
    JobSpec,
    JobTable,
)
from repro.service.journal import JobJournal, JournalCorruption


def spec(month: int = 7, deadline_s: float | None = None) -> JobSpec:
    return JobSpec(
        tasks=(SweepTask("mppt", "HM2", "PFCI", month),),
        label="t", deadline_s=deadline_s,
    )


def test_spec_to_dict_round_trips_through_from_dict():
    original = JobSpec.from_dict({
        "tasks": [
            {"mix": "HM2", "site": "AZ", "month": 7, "seed": 3},
            {"kind": "fixed", "mix": "H1", "site": "TN", "month": 1,
             "budget_w": 200.0},
        ],
        "solver": "table",
        "label": "round trip",
        "deadline_s": 5.0,
    })
    assert JobSpec.from_dict(original.to_dict()) == original


def test_journal_replays_submits_and_transitions(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    a = table.create(spec(1))
    b = table.create(spec(2))
    table.transition(a, RUNNING)
    table.transition(a, DONE)
    table.transition(b, RUNNING)

    report = JobJournal(tmp_path).replay()
    by_id = {job.job_id: job for job in report.jobs}
    assert by_id[a.job_id].state == DONE
    assert by_id[b.job_id].state == RUNNING
    assert by_id[b.job_id].spec == b.spec
    assert report.corrupt_lines == 0
    assert report.truncated_bytes == 0


def test_restore_bumps_id_counter_past_replayed_jobs(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    table.create(spec(1))
    table.create(spec(2))

    report = JobJournal(tmp_path).replay()
    fresh = JobTable()
    for job in report.jobs:
        fresh.restore(job)
    assert fresh.create(spec(3)).job_id == "job-000003"


def test_restore_rejects_duplicates(tmp_path):
    table = JobTable()
    job = Job(job_id="job-000004", spec=spec())
    table.restore(job)
    with pytest.raises(ValueError, match="duplicate"):
        table.restore(job)


def test_torn_tail_is_truncated_loudly(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())
    table.transition(job, RUNNING)
    journal.close()
    # Simulate a crash mid-append: a half-written record at the tail.
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write('{"op": "state", "job_id": "job-0000')
    size_before = journal.journal_path.stat().st_size

    with pytest.warns(JournalCorruption, match="torn tail"):
        report = JobJournal(tmp_path).replay()
    assert report.truncated_bytes > 0
    assert journal.journal_path.stat().st_size < size_before
    assert report.jobs[0].state == RUNNING  # acknowledged prefix survives

    # A second replay is clean: truncation healed the file.
    again = JobJournal(tmp_path).replay()
    assert again.truncated_bytes == 0
    assert again.corrupt_lines == 0


def test_corrupt_middle_record_is_dropped_but_tail_kept(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    a = table.create(spec(1))
    journal.append({"op": "state", "job_id": "job-999999", "state": DONE})
    table.transition(a, RUNNING)

    with pytest.warns(JournalCorruption, match="unusable record"):
        report = JobJournal(tmp_path).replay()
    assert report.corrupt_lines == 1
    assert report.truncated_bytes == 0  # later good records keep the tail
    assert report.jobs[0].state == RUNNING


def test_compaction_is_atomic_and_replayable(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    a = table.create(spec(1))
    table.transition(a, RUNNING)
    table.transition(a, FAILED, error="boom")
    b = table.create(spec(2))

    journal.compact(table.jobs())
    # The journal is the only file, compacted to one submit line per job
    # that carries the job's state.
    assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
    lines = journal.journal_path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"op": "submit", "job_id": a.job_id, "spec": a.spec.to_dict(),
         "state": FAILED, "error": "boom"},
        {"op": "submit", "job_id": b.job_id, "spec": b.spec.to_dict(),
         "state": QUEUED},
    ]

    # Post-compaction appends land in the compacted file.
    table.transition(b, RUNNING)
    table.transition(b, INTERRUPTED)
    journal.close()

    report = JobJournal(tmp_path).replay()
    by_id = {job.job_id: job for job in report.jobs}
    assert by_id[a.job_id].state == FAILED
    assert by_id[a.job_id].error == "boom"
    assert by_id[b.job_id].state == INTERRUPTED
    assert report.records == 4
    assert report.corrupt_lines == 0


def test_maybe_compact_honors_threshold(tmp_path):
    journal = JobJournal(tmp_path, compact_every=4)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())          # 1 append
    assert journal.maybe_compact(table.jobs()) is False
    table.transition(job, RUNNING)      # 2
    table.transition(job, DONE)         # 3
    assert journal.maybe_compact(table.jobs()) is False
    table.create(spec(2))               # 4
    assert journal.maybe_compact(table.jobs()) is True
    journal.close()
    assert journal.compactions == 1
    assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
    assert len(journal.journal_path.read_text().splitlines()) == 2


def test_empty_directory_replays_to_nothing(tmp_path):
    report = JobJournal(tmp_path / "fresh").replay()
    assert report.jobs == []


def test_unknown_state_in_record_is_corruption(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())
    journal.append({"op": "state", "job_id": job.job_id, "state": "paused"})
    journal.close()
    before = journal.journal_path.read_bytes()
    with pytest.warns(JournalCorruption, match="unknown state"):
        report = JobJournal(tmp_path).replay()
    assert report.corrupt_lines == 1
    assert report.jobs[0].state == QUEUED
    # A whole line is not a torn write: it stays on disk.
    assert report.truncated_bytes == 0
    assert journal.journal_path.read_bytes() == before


def test_unknown_op_in_last_record_is_kept_on_disk(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())
    journal.append({"op": "pause", "job_id": job.job_id})
    journal.close()
    before = journal.journal_path.read_bytes()
    with pytest.warns(JournalCorruption, match="unknown op"):
        report = JobJournal(tmp_path).replay()
    assert report.corrupt_lines == 1
    assert report.records == 1
    assert report.jobs[0].state == QUEUED
    assert report.truncated_bytes == 0
    assert journal.journal_path.read_bytes() == before


def test_whole_record_without_its_newline_is_a_torn_tail(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())
    journal.close()
    acknowledged = journal.journal_path.read_bytes()
    # A crash after the record's bytes but before its line end.
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "state", "job_id": job.job_id, "state": RUNNING}))

    with pytest.warns(JournalCorruption) as caught:
        report = JobJournal(tmp_path).replay()
    messages = " | ".join(str(w.message) for w in caught)
    assert "no line end" in messages and "torn tail" in messages
    assert report.jobs[0].state == QUEUED  # never acknowledged, not applied
    assert journal.journal_path.read_bytes() == acknowledged


def test_journal_records_are_one_json_object_per_line(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec(deadline_s=2.5))
    table.transition(job, RUNNING)
    lines = journal.journal_path.read_text().splitlines()
    assert len(lines) == 2
    submit = json.loads(lines[0])
    assert submit["op"] == "submit"
    assert submit["spec"]["deadline_s"] == 2.5
    assert json.loads(lines[1]) == {
        "job_id": job.job_id, "op": "state", "state": RUNNING,
    }


def test_snapshot_left_by_an_older_server_is_named_not_read(tmp_path):
    journal = JobJournal(tmp_path)
    table = JobTable(observer=journal.observer)
    job = table.create(spec())
    journal.close()
    old_job = {"job_id": "job-000009", "spec": spec(2).to_dict(), "state": DONE}
    (tmp_path / "snapshot.json").write_text(
        json.dumps({"format": 1, "next_id": 10, "jobs": [old_job]})
    )

    with pytest.warns(JournalCorruption, match="snapshot.json"):
        report = JobJournal(tmp_path).replay()
    assert [j.job_id for j in report.jobs] == [job.job_id]
    assert report.corrupt_lines == 0


def test_opening_a_journal_removes_only_old_compaction_temps(tmp_path, caplog):
    # A server killed mid-compaction leaves its journal-*.tmp behind.
    then = time.time() - ORPHAN_AGE_S - 60
    (tmp_path / "journal-old.tmp").write_text("partial")
    (tmp_path / "journal-new.tmp").write_text("partial")
    os.utime(tmp_path / "journal-old.tmp", (then, then))
    with caplog.at_level(logging.WARNING, logger="repro.atomicio"):
        JobJournal(tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.tmp")) == ["journal-new.tmp"]
    assert "removed 1 orphaned temp file(s)" in caplog.text
