"""One-pass adjacency-record streams.

Every streaming partitioner in this library consumes a
:class:`VertexStream`: an iterable of
:class:`~repro.graph.digraph.AdjacencyRecord` that may be traversed **once**
per partitioning run.  Streams also expose ``num_vertices`` / ``num_edges``
totals, which the paper's heuristics need up front to size capacities
(``C = δ·|G|/K``), expectation windows, and Range pre-assignments.

Four sources are provided:

* :class:`GraphStream` — records of an in-memory :class:`DiGraph`, in id
  order (the paper's default: "vertices are consecutively numbered and
  serially streamed") or any explicit order;
* :class:`ArrayStream` — the same records backed directly by contiguous
  CSR ``indptr``/``indices`` arrays.  Iterating yields zero-copy
  neighbor views, and the placement kernel's driver in
  :mod:`repro.partitioning.base` reads the arrays without constructing
  per-record objects at all (see :func:`as_array_stream`);
* :class:`FileStream` — records read lazily from an adjacency-list file, so
  graphs never have to fit in memory alongside the partitioner state;
* :class:`shuffled` — a convenience wrapper producing a random arrival
  order, used by ablations that destroy streaming locality.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from .digraph import AdjacencyRecord, DiGraph

__all__ = ["VertexStream", "GraphStream", "ArrayStream", "FileStream",
           "as_array_stream", "shuffled"]


class _Seekable:
    """``tell()``/``seek()`` in *record* units, shared by every source.

    The position is the index (into the stream's arrival order) of the
    first record the next iteration will yield; ``seek`` sets it and
    ``tell`` reads it back.  Iteration itself does not move the cursor —
    streams stay re-iterable, and the checkpointing driver (which knows
    exactly how many records it consumed) owns progress accounting.
    Resuming a crashed run is therefore: build a fresh stream over the
    same source, ``seek(position)`` from the snapshot, and continue.
    """

    _position = 0

    def tell(self) -> int:
        """Index of the record the next iteration starts from."""
        return self._position

    def seek(self, position: int) -> None:
        """Start subsequent iterations at record ``position``."""
        if position < 0:
            raise ValueError(f"stream position must be >= 0, "
                             f"got {position}")
        limit = getattr(self, "num_vertices", None)
        if limit is not None and position > limit:
            raise ValueError(
                f"stream position {position} is past the end of the "
                f"{limit}-record stream")
        self._position = int(position)


class VertexStream(Protocol):
    """Protocol all stream sources satisfy."""

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def __iter__(self) -> Iterator[AdjacencyRecord]: ...


def _validate_order(order: Sequence[int] | np.ndarray,
                    num_vertices: int) -> np.ndarray:
    """Check ``order`` is a permutation of ``range(num_vertices)``.

    Raises :class:`ValueError` for every malformed case — wrong length,
    out-of-range ids, *negative* ids (which fancy indexing would silently
    wrap around, letting a non-permutation stream the wrong vertices),
    and duplicates.
    """
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1 or len(order) != num_vertices:
        raise ValueError("order must cover every vertex exactly once")
    if len(order):
        lo, hi = int(order.min()), int(order.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(
                f"order contains out-of-range vertex ids (min {lo}, "
                f"max {hi}, valid range [0, {num_vertices}))")
    seen = np.zeros(num_vertices, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise ValueError("order must be a permutation of vertex ids")
    return order


class GraphStream(_Seekable):
    """Stream an in-memory graph's adjacency records.

    Parameters
    ----------
    graph:
        Source graph.
    order:
        Optional explicit arrival order (a permutation of vertex ids).
        Default: ascending id order, which is what the sliding-window and
        Range-locality techniques assume.
    """

    def __init__(self, graph: DiGraph,
                 order: Sequence[int] | np.ndarray | None = None) -> None:
        self._graph = graph
        if order is not None:
            order = _validate_order(order, graph.num_vertices)
        self._order = order

    @property
    def graph(self) -> DiGraph:
        """Underlying graph (metrics are computed against it afterwards)."""
        return self._graph

    @property
    def order(self) -> np.ndarray | None:
        """Explicit arrival order, or ``None`` for ascending id order."""
        return self._order

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def is_id_ordered(self) -> bool:
        """True when records arrive in ascending vertex-id order."""
        return self._order is None

    def __iter__(self) -> Iterator[AdjacencyRecord]:
        pos = self._position
        if self._order is None:
            if pos == 0:
                yield from self._graph.records()
            else:
                for v in range(pos, self._graph.num_vertices):
                    yield AdjacencyRecord(v, self._graph.out_neighbors(v))
        else:
            for v in self._order[pos:]:
                v = int(v)
                yield AdjacencyRecord(v, self._graph.out_neighbors(v))


class ArrayStream(_Seekable):
    """CSR-backed stream: contiguous ``indptr``/``indices`` + arrival order.

    The array-first twin of :class:`GraphStream`.  Iterating yields
    :class:`AdjacencyRecord` objects whose neighbor arrays are zero-copy
    slices of ``indices``, so the stream is a drop-in
    :class:`VertexStream`; but its real purpose is the vectorized hot
    path: :meth:`StreamingPartitioner.partition
    <repro.partitioning.base.StreamingPartitioner.partition>` detects
    (via :func:`as_array_stream`) that the records live in two flat
    arrays and runs a fused scoring loop over them with **no per-record
    object or array allocations**.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *,
                 order: Sequence[int] | np.ndarray | None = None,
                 name: str = "array-stream") -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0:
            raise ValueError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self._indptr = indptr
        self._indices = indices
        self._name = name
        self._max_degree: int | None = None
        if order is not None:
            order = _validate_order(order, len(indptr) - 1)
        self._order = order

    @classmethod
    def from_graph(cls, graph: DiGraph,
                   order: Sequence[int] | np.ndarray | None = None
                   ) -> "ArrayStream":
        """Zero-copy stream over a graph's own CSR arrays."""
        return cls(graph.indptr, graph.indices, order=order,
                   name=graph.name)

    @property
    def name(self) -> str:
        return self._name

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: neighbors of ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Flat out-neighbor array."""
        return self._indices

    @property
    def order(self) -> np.ndarray | None:
        """Explicit arrival order, or ``None`` for ascending id order."""
        return self._order

    @property
    def num_vertices(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self._indices)

    @property
    def is_id_ordered(self) -> bool:
        return self._order is None

    @property
    def max_degree(self) -> int:
        """Largest out-degree (sizes the sharded executors' record ring)."""
        if self._max_degree is None:
            if self.num_vertices == 0:
                self._max_degree = 0
            else:
                self._max_degree = int(np.diff(self._indptr).max())
        return self._max_degree

    def __iter__(self) -> Iterator[AdjacencyRecord]:
        indptr, indices = self._indptr, self._indices
        pos = self._position
        if self._order is None:
            for v in range(pos, self.num_vertices):
                yield AdjacencyRecord(v, indices[indptr[v]:indptr[v + 1]])
        else:
            for v in self._order[pos:]:
                v = int(v)
                yield AdjacencyRecord(v, indices[indptr[v]:indptr[v + 1]])


def as_array_stream(stream) -> ArrayStream | None:
    """View ``stream`` as CSR arrays if that costs nothing, else ``None``.

    :class:`ArrayStream` returns itself; :class:`GraphStream` wraps its
    graph's CSR arrays zero-copy.  Sources without materialized arrays
    (:class:`FileStream`, generators) return ``None`` and are iterated
    record by record — the conversion is never allowed to silently
    load a disk stream into memory.  Only *exact* types convert:
    subclasses may override ``__iter__`` (truncation, reordering, fault
    injection), and the CSR view would silently bypass that.
    """
    if type(stream) is ArrayStream:
        return stream
    if type(stream) is GraphStream:
        arrays = ArrayStream.from_graph(stream.graph, order=stream.order)
        arrays.seek(stream.tell())  # a resumed stream keeps its position
        return arrays
    return None


class FileStream(_Seekable):
    """Stream adjacency records straight from a disk file.

    The file is scanned once per iteration; totals are taken from the
    constructor (or discovered by a cheap pre-scan when omitted), mirroring
    how the paper's implementation learns ``|V|``/``|E|`` from dataset
    metadata rather than a full load.

    ``retries``/``retry_backoff`` add supervision against *transient*
    ``OSError`` s (NFS hiccups, flaky block devices): a failed pass is
    reopened after a backed-off sleep and fast-forwarded past the
    records already delivered, so consumers never see a duplicate.
    Backoff is the repo-wide
    :class:`~repro.resilience.backoff.BackoffPolicy` — capped
    exponential with full jitter, so a generous retry budget can no
    longer produce an unbounded ``backoff * 2**(n-1)`` sleep and
    concurrent readers of one flaky volume de-correlate instead of
    retrying in lockstep.  Persistent failures still surface after the
    budget.  ``policy`` (an
    :class:`~repro.recovery.lenient.IngestionPolicy`) selects strict or
    lenient handling of malformed lines.
    """

    def __init__(self, path: str | Path, *, num_vertices: int | None = None,
                 num_edges: int | None = None, retries: int = 2,
                 retry_backoff: float = 0.05, max_backoff: float = 2.0,
                 retry_seed: int | None = None, policy=None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        from ..resilience.backoff import BackoffPolicy
        self._path = Path(path)
        self._ordered: bool | None = None
        self._ordered_sig: tuple[int, int] | None = None
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._backoff = BackoffPolicy(retry_backoff, max_backoff,
                                      seed=retry_seed)
        self._policy = policy
        if num_vertices is None or num_edges is None:
            # Imported where used: ``import repro`` stays free of the
            # tokenizer, which only a file-backed stream needs.
            from ..ingest.chunked import scan_adjacency_stats
            max_id, edge_count, ordered, _rows = scan_adjacency_stats(
                self._path, policy=self._policy)
            self._set_ordered(ordered)
            num_vertices = num_vertices if num_vertices is not None \
                else max_id + 1
            num_edges = num_edges if num_edges is not None else edge_count
        self._num_vertices = num_vertices
        self._num_edges = num_edges

    def _file_sig(self) -> tuple[int, int] | None:
        """(size, mtime_ns) of the backing file, or None if unreadable."""
        try:
            st = self._path.stat()
        except OSError:
            return None
        return st.st_size, st.st_mtime_ns

    def _set_ordered(self, ordered: bool) -> None:
        self._ordered = ordered
        self._ordered_sig = self._file_sig()

    def seek(self, position: int) -> None:
        """Seek, invalidating the id-order memo if the file changed.

        ``seek`` is the resume entry point — the one place a long-lived
        stream object outlives whatever wrote the file — so the memoized
        :attr:`is_id_ordered` verdict is re-checked against the file's
        (size, mtime) signature here and dropped when stale.
        """
        super().seek(position)
        if self._ordered is not None and \
                self._file_sig() != self._ordered_sig:
            self._ordered = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def is_id_ordered(self) -> bool:
        """Whether vertex ids in the file are strictly increasing.

        Determined during the constructor's pre-scan; when both totals
        were supplied (no pre-scan happened) that same scan runs once,
        on first use, and its verdict is cached.  The memo is invalidated by
        :meth:`seek` when the file's (size, mtime) signature changed, so
        resumed runs never trust a stale verdict.  Unordered files used
        to be reported as ordered unconditionally, which silently
        corrupted :class:`~repro.partitioning.window.SlidingWindowStore`
        rotation; now the sliding window refuses them at setup.
        """
        if self._ordered is None:
            self._set_ordered(self._scan_id_order())
        return self._ordered

    def _scan_id_order(self) -> bool:
        from ..ingest.chunked import scan_adjacency_stats
        return scan_adjacency_stats(self._path, policy=self._policy)[2]

    def _order_changed(self, vertex: int, prev: int) -> ValueError:
        # The pre-scan saw an ordered file but iteration does not: the
        # file changed underneath us.  Consumers may have sized windows
        # from the stale claim — fail loud.
        return ValueError(
            f"{self._path} is no longer id-ordered (vertex {vertex} "
            f"arrived after {prev}); the file changed since it was scanned")

    def _row_events(self) -> Iterator[tuple]:
        """The tokenizer's row events for one pass over the file."""
        from ..ingest.chunked import iter_row_events
        return iter_row_events(self._path)

    def _segments(self, skip: int
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]
                                | list[AdjacencyRecord]]:
        """One pass over the file, less its first ``skip`` records.

        Each run of clean rows comes as its tokenizer arrays ``(values,
        splits)`` (row ``r`` is ``values[splits[r]:splits[r + 1]]``),
        each fallback line as a one-record list.  Lenient-policy handling
        and the check that an id-ordered file is still ordered happen
        here, so every reader of the file gets both.
        """
        from ..ingest.chunked import parse_adjacency_line
        if self._policy is not None:
            self._policy.begin_scan(self._path)
        claim_ordered = self._ordered
        ordered = True
        prev = -1
        for event in self._row_events():
            if event[0] == "rows":
                values, splits = event[1], event[2]
                vertices = values[splits[:-1]]
                first = min(skip, len(vertices))
                skip -= first
                stop = len(vertices)
                late = np.flatnonzero(np.diff(vertices, prepend=prev) <= 0)
                if len(late):
                    ordered = False
                    if claim_ordered:  # deliver what precedes, then raise
                        stop = int(late[0])
                if first < stop:
                    yield values, splits[first:stop + 1]
                if stop < len(vertices):
                    raise self._order_changed(
                        int(vertices[stop]),
                        int(vertices[stop - 1]) if stop else prev)
                prev = int(vertices[-1])
            else:
                parsed = parse_adjacency_line(self._path, event[1],
                                              event[2], self._policy)
                if parsed is None:
                    continue
                vertex = parsed[0]
                if vertex <= prev:
                    ordered = False
                    if claim_ordered:
                        raise self._order_changed(vertex, prev)
                prev = vertex
                if skip:
                    skip -= 1
                else:
                    yield [AdjacencyRecord(*parsed)]
        if self._ordered is None:
            self._set_ordered(ordered)

    def _record_segments(self, skip: int
                         ) -> Iterator[list[AdjacencyRecord]]:
        """:meth:`_segments` with every segment built into records.

        This is the seam :class:`~repro.recovery.chaos.FlakyFileStream`
        injects read failures at.
        """
        for segment in self._segments(skip):
            yield segment if isinstance(segment, list) \
                else _segment_records(*segment)

    def __iter__(self) -> Iterator[AdjacencyRecord]:
        delivered = 0
        attempts = 0
        while True:
            try:
                for records in self._record_segments(
                        self._position + delivered):
                    yield from records
                    # Read failures come from the next segment's read,
                    # never from inside this one.
                    delivered += len(records)
                return
            except OSError:
                # Transient read failures are retried from where the
                # consumer left off: the reopened pass skips every record
                # already delivered, so downstream sees each exactly once.
                attempts += 1
                if attempts > self._retries:
                    raise
                time.sleep(self._backoff.delay(attempts))


def _segment_records(values: np.ndarray,
                     splits: np.ndarray) -> list[AdjacencyRecord]:
    """The records of one tokenizer segment: row ``r`` is
    ``values[splits[r]:splits[r + 1]]``, its vertex first; neighbor
    arrays are zero-copy views into ``values``."""
    # Python ints, once per segment: slicing with numpy scalars would
    # convert two of them for every row.  ``tuple.__new__`` builds the
    # record without the named tuple's own ``__new__`` frame.
    bounds = splits.tolist()
    new = tuple.__new__
    return [new(AdjacencyRecord, (vertex, values[lo + 1:hi]))
            for vertex, lo, hi in zip(values[splits[:-1]].tolist(),
                                      bounds, bounds[1:])]


def shuffled(graph: DiGraph, seed: int = 0) -> GraphStream:
    """A stream of ``graph`` in uniformly random arrival order.

    Used to ablate the "serially streamed in numbered order" assumption —
    the sliding window and SPNL's Range locality both lose their edge under
    random arrival, which the ablation benchmarks quantify.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_vertices)
    return GraphStream(graph, order=order)
