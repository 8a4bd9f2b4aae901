"""Atomic file creation: a reader sees the old bytes or the new, never a mix.

The one write path behind every durable file of the package: disk result
cache entries, cache leases and their takeover claims, run-ledger
manifests and the compacted job journal.  Each comes into being whole and
fsynced.  Stdlib only, so every layer can import it.
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
#: between creating it and the rename or link.
ORPHAN_AGE_S = 3600.0


def write_atomic(
    path: str | os.PathLike,
    data: bytes | str,
    *,
    prefix: str = "tmp",
    suffix: str = ".tmp",
    exclusive: bool = False,
) -> Path:
    """Replace ``path`` with ``data`` (str is written as UTF-8).

    The data goes to a ``prefix*suffix`` temp file in the same directory,
    is flushed and fsynced, and the temp file is ``os.replace``\\ d onto
    ``path``.  With ``exclusive`` the temp file is hard-linked to ``path``
    instead, which raises ``FileExistsError`` when ``path`` exists: of N
    racing writers exactly one creates the file, and it appears complete.
    The temp file is removed on any failure (the error is re-raised) and
    after a link; failing to remove it is logged, never raised.  The
    directory is not fsynced: a crash may lose the rename or link, never
    the contents of a file that is visible.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=suffix)
    leftover = tmp  # removed on failure, and after a link made ``path`` live
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
            leftover = None
    finally:
        if leftover is not None:
            try:
                os.unlink(leftover)
            except OSError as exc:
                log.warning("could not clean up temp file %s: %s", leftover, exc)
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
