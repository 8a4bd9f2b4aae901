"""Tests for the one atomic-write path (``repro.atomicio.write_atomic``)."""

import logging
import os
import time

import pytest

from repro.atomicio import ORPHAN_AGE_S, remove_orphaned_temps, write_atomic


def test_replaces_the_file_with_bytes_or_utf8_text(tmp_path):
    path = tmp_path / "entry.json"
    path.write_bytes(b"old")
    assert write_atomic(path, b"\x00new") == path
    assert path.read_bytes() == b"\x00new"
    write_atomic(path, "café\n")
    assert path.read_bytes() == "café\n".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]


def test_failed_replace_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "entry.json"
    path.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json"]


def _backdate(path, seconds):
    then = time.time() - seconds
    os.utime(path, (then, then))


def test_remove_orphaned_temps_takes_only_old_matching_files(tmp_path, caplog):
    old, fresh, other = (tmp_path / n for n in ("tmpold.tmp", "tmpnew.tmp", "entry.pkl"))
    for path in (old, fresh, other):
        path.write_bytes(b"x")
    _backdate(old, ORPHAN_AGE_S + 60)
    _backdate(other, ORPHAN_AGE_S + 60)
    with caplog.at_level(logging.WARNING, logger="repro.atomicio"):
        assert remove_orphaned_temps(tmp_path, ("tmp*.tmp",)) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.pkl", "tmpnew.tmp"]
    assert "removed 1 orphaned temp file(s)" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.atomicio"):
        assert remove_orphaned_temps(tmp_path, ("tmp*.tmp",)) == 0
    assert caplog.text == ""
