"""Atomic file creation: a reader sees the old bytes or the new, never a mix.

The one write path behind every durable file of the package: disk result
cache entries, run-ledger manifests and the compacted job journal.  Each
comes into being whole and fsynced.  (A cache's compute leases are lock
files, not data, and never go through here.)  Stdlib only, so every layer
can import it.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
from pathlib import Path

__all__ = ["ORPHAN_AGE_S", "remove_orphaned_temps", "write_atomic"]

log = logging.getLogger(__name__)

#: Age [s] past which a write's temp file is an orphan.  A live write holds
#: its temp file for milliseconds; one this old was left by a process killed
#: between creating it and the rename.
ORPHAN_AGE_S = 3600.0


def write_atomic(
    path: str | os.PathLike, data: bytes | str, *, prefix: str = "tmp"
) -> Path:
    """Replace ``path`` with ``data`` (str is written as UTF-8).

    The data goes to a ``prefix*.tmp`` temp file in the same directory,
    is flushed and fsynced, and the temp file is ``os.replace``\\ d onto
    ``path``.  The temp file is removed on any failure (the error is
    re-raised); failing to remove it is logged, never raised.  The
    directory is not fsynced: a crash may lose the rename, never the
    contents of a file that is visible.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError as exc:
            log.warning("could not clean up temp file %s: %s", tmp, exc)
        raise
    return path


def remove_orphaned_temps(directory: str | os.PathLike, patterns: tuple[str, ...]) -> int:
    """Delete temp files matching ``patterns`` older than :data:`ORPHAN_AGE_S`.

    :func:`write_atomic` removes its temp file on every failure it sees,
    but not when its process is killed first; the owner of a directory
    calls this when it opens it.  Returns how many files went, and warns
    with the count when any did.  A file another opener removed first is
    skipped; failing to remove one is logged, never raised.
    """
    root = Path(directory)
    cutoff = time.time() - ORPHAN_AGE_S
    removed = 0
    for pattern in patterns:
        for path in root.glob(pattern):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError as exc:
                log.warning("could not remove orphaned temp file %s: %s", path, exc)
                continue
            removed += 1
    if removed:
        log.warning(
            "removed %d orphaned temp file(s) older than %.0f s from %s",
            removed, ORPHAN_AGE_S, directory,
        )
    return removed
