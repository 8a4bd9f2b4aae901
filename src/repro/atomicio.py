"""Atomic file replacement: a reader sees the old bytes or the new, never a mix.

The one write path behind every file the package replaces in place: the
disk result cache and its lease claims, run-ledger manifests, job-journal
snapshots and operating-surface tables.  Stdlib only, so every layer can
import it.
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path

__all__ = ["write_atomic"]

log = logging.getLogger(__name__)


def write_atomic(
    path: str | os.PathLike,
    data: bytes | str,
    *,
    prefix: str = "tmp",
    suffix: str = ".tmp",
) -> Path:
    """Replace ``path`` with ``data`` (str is written as UTF-8).

    The data goes to a ``prefix*suffix`` temp file in the same directory,
    is flushed and fsynced, and the temp file is ``os.replace``\\ d onto
    ``path``.  On any failure the temp file is removed and the error
    re-raised.  The directory is not fsynced: a crash may lose the rename,
    never the contents of a file that is visible.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=suffix)
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
