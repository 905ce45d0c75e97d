"""Atomic artifact writes: a reader sees the previous file or the complete new
one, never a partial file, and a writer that fails leaves the previous file
as it was. Not durable across power loss (no fsync)."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temp file in ``path``'s directory for writing, a text file with
    ``newline=""`` so the line ends written are the bytes on every platform. On
    a clean exit it replaces ``path`` with ``os.replace``; on an exception it is
    removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
