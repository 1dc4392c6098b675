"""Double-buffered background prefetch for adjacency-list files.

:class:`~repro.graph.stream.FileStream` interleaves disk reads, parsing,
and scoring on one thread: while the partitioner scores a record, the
disk sits idle, and vice versa.  :class:`PrefetchStream` moves chunk
reading + tokenization onto a producer thread that stays a bounded
number of parsed segments ahead of the consumer (``depth=2`` — a double
buffer), so I/O and parsing overlap with the scoring kernels.  The
chunked tokenizer spends most of its time in NumPy calls that release
the GIL, which is what makes the overlap real on CPython.

The stream keeps the exact :class:`~repro.graph.stream._Seekable`
contract checkpoint/resume relies on: ``tell()``/``seek()`` are in
*record* units, iteration never moves the cursor, and a fresh iteration
after ``seek(p)`` delivers precisely the records a
:class:`~repro.graph.stream.FileStream` would deliver from ``p`` — byte
identical, including strict-mode error ordering, lenient quarantine
accounting and the refusal of a file that is no longer id-ordered.  The
producer reads through ``FileStream``'s own segment reader (this class
is a ``FileStream``) and hands over whole tokenizer segments; the
consumer builds their records.

``ingest_stats()`` reports where wall-clock went: producer busy/blocked
seconds and consumer wait seconds, cumulative across iterations.  A
consumer-wait near zero means ingest is fully hidden behind scoring.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Iterator

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import FileStream, _segment_records
from .chunked import DEFAULT_CHUNK_BYTES, iter_row_events

__all__ = ["PrefetchStream"]


class PrefetchStream(FileStream):
    """Adjacency-file stream with background chunk parsing.

    Parameters
    ----------
    path:
        Adjacency-list file (``.gz`` transparently supported).
    num_vertices / num_edges:
        Stream totals; omitted values are discovered by one vectorized
        pre-scan (exactly like :class:`~repro.graph.stream.FileStream`).
    policy:
        Optional :class:`~repro.recovery.lenient.IngestionPolicy` for
        strict/lenient malformed-line handling.
    depth:
        Parsed segments the producer may run ahead (default 2: one being
        consumed, one in flight).
    chunk_bytes:
        Tokenizer block size, forwarded to :mod:`repro.ingest.chunked`.

    Unlike ``FileStream`` it does not retry a failed read.
    """

    def __init__(self, path: str | Path, *,
                 num_vertices: int | None = None,
                 num_edges: int | None = None,
                 policy=None, depth: int = 2,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        super().__init__(path, num_vertices=num_vertices,
                         num_edges=num_edges, policy=policy)
        self._depth = depth
        self._chunk_bytes = chunk_bytes
        self._stats = {
            "producer_busy_seconds": 0.0,
            "producer_blocked_seconds": 0.0,
            "consumer_wait_seconds": 0.0,
            "records": 0,
            "segments": 0,
        }

    def ingest_stats(self) -> dict:
        """Cumulative overlap accounting (see module docstring)."""
        return dict(self._stats)

    def _row_events(self) -> Iterator[tuple]:
        return iter_row_events(self._path, chunk_bytes=self._chunk_bytes)

    # -- producer ------------------------------------------------------
    def _put(self, out_q: queue.Queue, item, stop: threading.Event) -> bool:
        """Bounded put that aborts when the consumer went away."""
        blocked = time.perf_counter()
        while not stop.is_set():
            try:
                out_q.put(item, timeout=0.05)
                self._stats["producer_blocked_seconds"] += \
                    time.perf_counter() - blocked
                return True
            except queue.Full:
                continue
        return False

    def _produce(self, skip: int, out_q: queue.Queue,
                 stop: threading.Event) -> None:
        try:
            mark = time.perf_counter()
            for segment in self._segments(skip):
                if not isinstance(segment, list):
                    self._stats["segments"] += 1
                self._stats["producer_busy_seconds"] += \
                    time.perf_counter() - mark
                if not self._put(out_q, ("segment", segment), stop):
                    return
                mark = time.perf_counter()
            self._stats["producer_busy_seconds"] += \
                time.perf_counter() - mark
            self._put(out_q, ("done", None), stop)
        except BaseException as exc:  # propagate to the consumer
            self._put(out_q, ("error", exc), stop)

    # -- consumer ------------------------------------------------------
    def __iter__(self) -> Iterator[AdjacencyRecord]:
        out_q: queue.Queue = queue.Queue(self._depth)
        stop = threading.Event()
        producer = threading.Thread(
            target=self._produce, args=(self._position, out_q, stop),
            name=f"prefetch:{self._path.name}", daemon=True)
        producer.start()
        stats = self._stats
        try:
            while True:
                waited = time.perf_counter()
                kind, payload = out_q.get()
                stats["consumer_wait_seconds"] += \
                    time.perf_counter() - waited
                if kind == "segment":
                    records = payload if isinstance(payload, list) \
                        else _segment_records(*payload)
                    yield from records
                    stats["records"] += len(records)
                elif kind == "done":
                    return
                else:
                    raise payload
        finally:
            stop.set()
            try:  # unblock a producer stuck on a full queue
                while True:
                    out_q.get_nowait()
            except queue.Empty:
                pass
            producer.join(timeout=5.0)
