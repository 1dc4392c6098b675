"""Crash-safe file writes: tmp + fsync + rename.

A writer that dies mid-``write()`` leaves a torn file at the target
path; every durable artifact in this project (snapshots, route tables,
bench JSON) therefore goes through this helper instead.  The write goes
to a temporary sibling in the *same directory* (so the final ``rename``
is atomic on POSIX), the temporary is flushed and fsynced before the
rename, and a failure at any point unlinks the temporary — the target
path only ever holds a complete previous version or a complete new one.
"""

from __future__ import annotations

import gzip
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

__all__ = ["atomic_writer", "atomic_write_text"]


def _tmp_path(path: Path) -> Path:
    """A temporary sibling of ``path`` (same dir ⇒ same filesystem)."""
    return path.with_name(f".{path.name}.tmp.{os.getpid()}")


@contextmanager
def atomic_writer(path: str | Path, mode: str = "w", *,
                  encoding: str | None = "utf-8") -> Iterator[IO]:
    """Context manager yielding a handle whose contents replace ``path``.

    ``mode`` is ``"w"`` (text) or ``"wb"`` (binary).  Paths ending in
    ``.gz`` are gzip-compressed transparently, matching the readers in
    :mod:`repro.graph.io` and :mod:`repro.partitioning.persistence`.
    ``"w+b"`` opens a plain binary file, never gzip-wrapped, that can
    also seek and read back: the snapshot and graph-cache formats write
    their arrays' buffers straight into it, and the snapshot writer
    reads its body back for the CRC and patches its header in place.
    On a clean exit the temporary is fsynced and renamed over ``path``;
    on an exception it is removed and ``path`` is left untouched.
    """
    path = Path(path)
    if mode not in ("w", "wb", "w+b"):
        raise ValueError(f"mode must be 'w', 'wb' or 'w+b', got {mode!r}")
    tmp = _tmp_path(path)
    binary = "b" in mode
    if path.suffix == ".gz" and mode != "w+b":
        fh: IO = gzip.open(tmp, mode if binary else mode + "t",
                           encoding=None if binary else encoding)
    else:
        fh = open(tmp, mode, encoding=None if binary else encoding)
    try:
        yield fh
    except BaseException:
        fh.close()
        tmp.unlink(missing_ok=True)
        raise
    # Close before fsync: gzip writes its trailer at close time, and a
    # rename of un-fsynced data can surface as a torn file after a crash.
    fh.close()
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def atomic_write_text(path: str | Path, text: str, *,
                      encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (gzip-transparent)."""
    with atomic_writer(path, "w", encoding=encoding) as fh:
        fh.write(text)
