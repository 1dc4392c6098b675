"""The versioned on-disk snapshot format (CRC32-checked, atomic).

A snapshot captures everything a streaming run needs to resume: the
shared :class:`~repro.partitioning.base.PartitionState` arrays, the
heuristic's private state (Γ tables, η bookkeeping, FENNEL's effective
α), and the stream position.  The file layout is::

    MAGIC (10 bytes)  b"REPROSNAP\\x01"
    4-byte big-endian header length
    header JSON   {"format": "repro-snapshot", "version": 1,
                   "crc32": <crc of body>, "body_len": <bytes>,
                   "meta": {... every non-array payload field ...}}
                  padded with trailing spaces to a width reserved
                  before the body is written
    body          an ``.npz`` archive holding every array field

Integrity is layered: a truncated file fails the ``body_len`` check, a
corrupted one fails the CRC32 check, and a file from a different format
or future version is rejected by name — all as :class:`SnapshotError`
*before* any array is handed to the partitioner.  Writes go through
:func:`repro.recovery.atomic.atomic_writer`, so a crash mid-write
can never tear an existing snapshot.

Neither direction holds the file in memory.  The writer reserves the
header's width (its ``crc32`` and ``body_len`` at their widest), streams
each array's own buffer into the ``.npz`` members, reads the body back
in 64 KiB chunks for its CRC, and rewrites the header in place; JSON
allows the trailing spaces that pad it, so readers of unpadded headers
load these files too.  The reader checks the header and the body length
against the file's size, streams the CRC over the body, and only then
decodes the arrays from the same open file (``zipfile`` skips the
prepended header).

The payload is a JSON-safe dict whose leaves are scalars, strings, or
``numpy`` arrays; nested dicts are flattened with ``/``-joined keys.
``numpy.load`` runs with ``allow_pickle=False`` — snapshots never
execute code on load.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from .atomic import atomic_writer

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "SnapshotError",
           "read_snapshot", "write_snapshot"]

SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_VERSION = 1
_MAGIC = b"REPROSNAP\x01"
_LEN = struct.Struct(">I")
_CHUNK = 64 * 1024


class SnapshotError(ValueError):
    """A snapshot file is torn, corrupted, or from an unknown format."""


def _flatten(payload: dict[str, Any], prefix: str,
             meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    for key, value in payload.items():
        if "/" in key:
            raise ValueError(f"payload key {key!r} may not contain '/'")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, path + "/", meta, arrays)
        elif isinstance(value, np.ndarray):
            arrays[path] = value
        elif isinstance(value, (np.integer, np.floating, np.bool_)):
            meta[path] = value.item()
        else:
            meta[path] = value  # JSON-serializable scalar/str/None/list
    # Mark empty dicts so they round-trip (a heuristic with no state).
    if not payload:
        meta[prefix + "\x00empty"] = True


def _assign(tree: dict[str, Any], path: str, value: Any) -> None:
    parts = path.split("/")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    if parts[-1] == "\x00empty":
        return
    node[parts[-1]] = value


class _BodyView:
    """The temp file as ``zipfile`` sees it: offsets start at the body.

    The archive's member and central-directory offsets are then
    relative to the body, exactly as if it had been built alone, so
    the body is a standalone ``.npz`` for readers that decode it from
    memory; ``zipfile`` finds it behind the header on its own.
    """

    def __init__(self, fh, base: int) -> None:
        self._fh = fh
        self._base = base

    def write(self, data) -> int:
        return self._fh.write(data)

    def tell(self) -> int:
        return self._fh.tell() - self._base

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_SET:
            offset += self._base
        return self._fh.seek(offset, whence) - self._base

    def flush(self) -> None:
        self._fh.flush()


def _header(meta: dict[str, Any], crc32: int, body_len: int) -> bytes:
    return json.dumps({
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "crc32": crc32,
        "body_len": body_len,
        "meta": meta,
    }, sort_keys=True).encode("utf-8")


def _crc32(fh, length: int) -> int:
    """CRC32 of the next ``length`` bytes of ``fh``, 64 KiB at a time."""
    chunk = bytearray(_CHUNK)
    view = memoryview(chunk)
    crc = 0
    while length > 0:
        got = fh.readinto(view[:min(length, _CHUNK)])
        if not got:
            break
        crc = zlib.crc32(view[:got], crc)
        length -= got
    return crc


def write_snapshot(path: str | Path, payload: dict[str, Any]) -> None:
    """Serialize ``payload`` to ``path`` atomically.

    ``payload`` maps string keys to scalars, strings, lists, nested
    dicts, or ``numpy`` arrays.  Each array's bytes go from its own
    buffer to the file; no buffer the size of the file is built.
    """
    import zipfile

    from numpy.lib import format as npy

    meta: dict[str, Any] = {}
    arrays: dict[str, np.ndarray] = {}
    _flatten(payload, "", meta, arrays)
    width = len(_header(meta, 0xFFFFFFFF, 2**63 - 1))
    body_start = len(_MAGIC) + _LEN.size + width
    with atomic_writer(path, "w+b") as fh:
        fh.write(_MAGIC + _LEN.pack(width) + b" " * width)
        with zipfile.ZipFile(_BodyView(fh, body_start), "w") as archive:
            for key, value in arrays.items():
                if value.dtype.hasobject:
                    raise ValueError(
                        f"payload array {key!r} holds Python objects")
                if not value.flags.c_contiguous:
                    value = np.ascontiguousarray(value)
                # np.savez's member layout: a v1.0 .npy header, then
                # the raw C-order data, forced zip64 (numpy gh-10776).
                # The flat byte view also covers 0-d, empty and
                # datetime arrays, which memoryview cannot cast.
                data = memoryview(value.reshape(-1).view(np.uint8))
                with archive.open(key + ".npy", "w",
                                  force_zip64=True) as member:
                    npy.write_array_header_1_0(
                        member, npy.header_data_from_array_1_0(value))
                    member.write(data)
        body_len = fh.tell() - body_start
        fh.seek(body_start)
        crc = _crc32(fh, body_len)
        fh.seek(len(_MAGIC) + _LEN.size)
        fh.write(_header(meta, crc, body_len).ljust(width))


def read_snapshot(path: str | Path) -> dict[str, Any]:
    """Load and verify a snapshot; returns the original payload dict.

    Raises :class:`SnapshotError` on any integrity violation: bad magic,
    unparseable or wrong-format header, unsupported version, truncated
    body, or CRC mismatch.  The body is checked in bounded chunks and
    decoded from the same open file; the file is never read whole.
    """
    from ..ingest.cache import read_framed_header

    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            header = read_framed_header(fh, _MAGIC, "snapshot",
                                        SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
        except ValueError as exc:
            raise SnapshotError(f"{path}: {exc}") from None
        body_start = fh.tell()
        body_len = size - body_start
        if body_len != header.get("body_len"):
            raise SnapshotError(
                f"{path}: truncated snapshot body ({body_len} bytes, "
                f"header declares {header.get('body_len')})")
        if _crc32(fh, body_len) != header.get("crc32"):
            raise SnapshotError(
                f"{path}: snapshot body fails its CRC32 check")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise SnapshotError(f"{path}: snapshot meta is not an object")
        tree: dict[str, Any] = {}
        for key, value in meta.items():
            _assign(tree, key, value)
        fh.seek(body_start)
        with np.load(fh, allow_pickle=False) as npz:
            for key in npz.files:
                _assign(tree, key, npz[key])
    return tree
