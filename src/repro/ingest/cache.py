"""Versioned binary CSR graph cache (``.reprocsr``).

Parsing a text edge list costs seconds per gigabyte even with the
chunked tokenizer; loading the same graph from its finished CSR arrays
costs a file map.  This module persists a parsed
:class:`~repro.graph.digraph.DiGraph` next to its source file and loads
it back zero-copy via ``mmap``, so every run after the first skips text
parsing entirely.  The file layout mirrors the snapshot codec
(:mod:`repro.recovery.snapshot`)::

    MAGIC (9 bytes)   b"REPROCSR\\x01"
    4-byte big-endian header length
    header JSON   {"format": "repro-csr", "version": 1,
                   "crc32": <crc of body>, "body_len": <bytes>,
                   "num_vertices": ..., "num_edges": ..., "name": ...,
                   "source": {"size": ..., "mtime_ns": ...} | null}
                  padded with trailing spaces up to the next
                  64-byte boundary of the file
    body          indptr bytes (int64 LE) + indices bytes (int64 LE),
                  starting at a multiple of 64

Integrity is layered exactly like snapshots: truncation fails the
``body_len`` check, corruption fails CRC32, and foreign/future files are
rejected by format name and version — all as :class:`GraphCacheError`
before any array reaches a partitioner.  Writes go through
:func:`repro.recovery.atomic.atomic_writer`, straight from the two
arrays' buffers (the CRC is chained over them first), so a crash
mid-write never tears an existing cache and no copy of the body is
built.

Freshness is keyed on the source file's ``(size, mtime_ns)`` recorded
at write time; :func:`load_or_parse` transparently falls back to a text
parse (and rewrites the cache) whenever the source changed or the cache
is damaged.

The ``mmap`` load is lazy *and* checked: the CRC is verified on the
mapped bytes before the arrays are returned, after which the OS pages
the arrays in on demand — repeat partitioning runs touch only the bytes
they stream.

The mapping starts on a page, so the padded header leaves both arrays
aligned.  An unaligned index array costs numpy an aligned copy each
time it indexes with it, and the placement kernel indexes with every
record's neighbour slice several times.  JSON allows the padding's
trailing spaces, so the version is unchanged and unpadded files still
load; :func:`is_cache_fresh` calls them stale, so :func:`load_or_parse`
rewrites each one aligned, once.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "CACHE_FORMAT",
    "CACHE_SUFFIX",
    "CACHE_VERSION",
    "GraphCacheError",
    "cache_path_for",
    "is_cache_fresh",
    "load_or_parse",
    "read_graph_cache",
    "write_graph_cache",
]

CACHE_FORMAT = "repro-csr"
CACHE_VERSION = 1
CACHE_SUFFIX = ".reprocsr"
_MAGIC = b"REPROCSR\x01"
_LEN = struct.Struct(">I")
_ALIGN = 64  # body offset; numpy needs 8, shared lanes align to 64


class GraphCacheError(ValueError):
    """A graph cache file is torn, corrupted, stale, or foreign."""


def cache_path_for(source: str | Path) -> Path:
    """Sidecar cache path for a graph source file (``<file>.reprocsr``)."""
    source = Path(source)
    return source.with_name(source.name + CACHE_SUFFIX)


def _source_sig(source: str | Path) -> dict[str, int] | None:
    try:
        st = Path(source).stat()
    except OSError:
        return None
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


def write_graph_cache(path: str | Path, graph,
                      *, source: str | Path | None = None) -> None:
    """Persist ``graph``'s CSR arrays to ``path`` atomically.

    ``source`` (the text file the graph was parsed from) stamps the
    header with a freshness signature; omit it for graphs with no
    backing file.
    """
    from ..recovery.atomic import atomic_writer
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
    if indptr.dtype.byteorder not in ("=", "<", "|"):  # pragma: no cover
        indptr = indptr.astype("<i8")
        indices = indices.astype("<i8")
    body = (memoryview(indptr).cast("B"), memoryview(indices).cast("B"))
    header = json.dumps({
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "crc32": zlib.crc32(body[1], zlib.crc32(body[0])),
        "body_len": body[0].nbytes + body[1].nbytes,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "name": str(graph.name),
        "source": _source_sig(source) if source is not None else None,
    }, sort_keys=True).encode("utf-8")
    header += b" " * (-(len(_MAGIC) + _LEN.size + len(header)) % _ALIGN)
    with atomic_writer(path, "w+b") as fh:
        fh.write(_MAGIC + _LEN.pack(len(header)) + header)
        for part in body:
            fh.write(part)


def read_framed_header(fh, magic: bytes, kind: str, fmt: str,
                       version: int) -> dict[str, Any]:
    """The JSON object after ``magic`` and its 4-byte big-endian length
    at the start of the binary file ``fh``, leaving ``fh`` at the body.

    Shared by the graph-cache and snapshot readers.  Raises
    :class:`ValueError` naming ``kind`` on a wrong magic, a length that
    points past the end of the file, a header that is not a JSON object,
    or a ``format``/``version`` other than ``fmt``/``version``.  The
    length is checked before the read, since ``read(n)`` allocates n
    bytes up front and a damaged length field can claim up to 4 GiB.
    """
    head = fh.read(len(magic) + _LEN.size)
    if len(head) < len(magic) + _LEN.size or not head.startswith(magic):
        raise ValueError(f"not a repro {kind} (bad magic)")
    (header_len,) = _LEN.unpack_from(head, len(magic))
    if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated {kind} header")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"unreadable {kind} header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"unreadable {kind} header: a JSON "
                         f"{type(header).__name__}, not an object")
    if header.get("format") != fmt:
        raise ValueError(f"format {header.get('format')!r} is not {fmt!r}")
    if header.get("version") != version:
        raise ValueError(
            f"{kind} version {header.get('version')!r} is not supported "
            f"(expected {version})")
    return header


def _read_header(path: Path, fh) -> dict[str, Any]:
    """:func:`read_framed_header` for a graph cache, its sizes and CRC
    checked to be non-negative ints, raising :class:`GraphCacheError`."""
    try:
        header = read_framed_header(fh, _MAGIC, "graph cache",
                                    CACHE_FORMAT, CACHE_VERSION)
    except ValueError as exc:
        raise GraphCacheError(f"{path}: {exc}") from None
    for field in ("body_len", "crc32", "num_vertices", "num_edges"):
        value = header.get(field)
        if type(value) is not int or value < 0:
            raise GraphCacheError(
                f"{path}: header field {field}={value!r} is not a "
                "non-negative int")
    return header


def read_graph_cache(path: str | Path, *, use_mmap: bool = True):
    """Load a cached graph; CRC-verified before any array is returned.

    With ``use_mmap`` (default) the CSR arrays are zero-copy views over
    a private read-only file mapping — the OS pages them in on demand
    and shares clean pages across processes.  Raises
    :class:`GraphCacheError` on any integrity violation.
    """
    from ..graph.digraph import DiGraph
    path = Path(path)
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
        body = None
        if use_mmap:
            try:
                body = memoryview(mmap.mmap(
                    fh.fileno(), 0, access=mmap.ACCESS_READ))[fh.tell():]
            except (ValueError, OSError):  # no-mmap filesystem
                pass
        if body is None:
            body = memoryview(fh.read())
    if len(body) != header["body_len"]:
        raise GraphCacheError(
            f"{path}: truncated cache body ({len(body)} bytes, header "
            f"declares {header['body_len']})")
    if zlib.crc32(body) != header["crc32"]:
        raise GraphCacheError(f"{path}: cache body fails its CRC32 check")
    num_vertices = header["num_vertices"]
    num_edges = header["num_edges"]
    indptr_bytes = (num_vertices + 1) * 8
    if indptr_bytes + num_edges * 8 != header["body_len"]:
        raise GraphCacheError(
            f"{path}: header counts do not match body size")
    indptr = np.frombuffer(body, dtype="<i8", count=num_vertices + 1)
    indices = np.frombuffer(body, dtype="<i8", count=num_edges,
                            offset=indptr_bytes)
    if int(indptr[0]) != 0 or int(indptr[-1]) != num_edges:
        raise GraphCacheError(f"{path}: inconsistent CSR row pointers")
    return DiGraph(indptr, indices, name=header.get("name", path.stem))


def is_cache_fresh(cache: str | Path, source: str | Path) -> bool:
    """Whether ``cache`` exists and matches ``source``'s current state.

    A cache written without a source signature is never considered
    fresh relative to a source file; unreadable or foreign files are
    simply "not fresh" (callers fall back to parsing), never an error.
    Neither is a file whose body does not start on a 64-byte boundary
    (written before the header was padded), so it is rewritten aligned.
    """
    cache = Path(cache)
    try:
        with open(cache, "rb") as fh:
            header = _read_header(cache, fh)
            if fh.tell() % _ALIGN:
                return False
    except (OSError, GraphCacheError):
        return False
    return header.get("source") is not None \
        and header["source"] == _source_sig(source)


def load_or_parse(source: str | Path, *, cache: str | Path | bool = True,
                  policy=None, instrumentation=None, reader=None,
                  **read_kwargs):
    """Load ``source`` through the cache, parsing (and caching) on miss.

    ``cache=True`` uses the sidecar path from :func:`cache_path_for`;
    a path uses that file; ``False`` always parses.  Damaged or stale
    caches are rewritten after the fall-back parse.  ``reader``
    overrides the text parser (default
    :func:`repro.graph.io.read_adjacency` — pass ``read_edge_list`` for
    edge-list sources); ``read_kwargs`` are forwarded to it on a miss.

    Emits ``graph_cache_hit`` / ``graph_cache_miss`` instrumentation
    counters plus one ``ingest_phase`` trace record per completed stage
    (``cache_hit`` / ``parse`` / ``cache_write``) when an
    :class:`~repro.observability.instrumentation.Instrumentation` is
    supplied.
    """
    import time

    def _phase(name: str, elapsed: float, graph=None) -> None:
        if instrumentation is None:
            return
        record: dict[str, Any] = {
            "type": "ingest_phase",
            "phase": name,
            "source": str(source),
            "elapsed_seconds": float(elapsed),
        }
        if graph is not None:
            record["records"] = int(graph.num_vertices)
            record["bytes"] = int(graph.indptr.nbytes
                                  + graph.indices.nbytes)
        instrumentation.emit(record)

    if reader is None:
        from ..graph.io import read_adjacency as reader
    source = Path(source)
    if cache is False:
        t0 = time.perf_counter()
        graph = reader(source, policy=policy, **read_kwargs)
        _phase("parse", time.perf_counter() - t0, graph)
        return graph
    cache_path = cache_path_for(source) if cache is True else Path(cache)
    if is_cache_fresh(cache_path, source):
        t0 = time.perf_counter()
        try:
            graph = read_graph_cache(cache_path)
        except GraphCacheError:
            pass  # damaged cache: fall through to a parse + rewrite
        else:
            if instrumentation is not None:
                instrumentation.count("graph_cache_hit")
            _phase("cache_hit", time.perf_counter() - t0, graph)
            return graph
    t0 = time.perf_counter()
    graph = reader(source, policy=policy, **read_kwargs)
    _phase("parse", time.perf_counter() - t0, graph)
    if instrumentation is not None:
        instrumentation.count("graph_cache_miss")
    t0 = time.perf_counter()
    try:
        write_graph_cache(cache_path, graph, source=source)
    except OSError:  # read-only dir etc. — the parse still succeeded
        pass
    else:
        _phase("cache_write", time.perf_counter() - t0, graph)
    return graph
