"""Incremental construction of :class:`~repro.graph.digraph.DiGraph`.

Separating the mutable build phase from the immutable CSR keeps the hot
partitioning paths free of append/realloc logic and makes graph identity
well-defined for caching and property tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .digraph import DiGraph

__all__ = ["GraphBuilder", "from_edges", "from_adjacency"]

#: Largest vertex count whose ``src * n + dst`` edge keys fit ``int64``
#: (the biggest key is ``n * n - 1``): 3 037 000 499.
_MAX_KEY_VERTICES = math.isqrt(2 ** 63)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``."""
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return keep


def _sorted_edges(src: np.ndarray, dst: np.ndarray, n: int,
                  dedupe: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` ordered by source, then target; duplicates dropped.

    Every id is below ``n``, so the single key ``src * n + dst`` orders
    the pairs exactly as the pairs order themselves: one ``int64`` sort
    and one ``divmod`` replace a two-key ``lexsort`` and two gathers.
    ``src`` is overwritten with the key; ``build`` has checked that
    ``n`` is at most :data:`_MAX_KEY_VERTICES`.
    """
    if not len(src):
        return src, dst
    key = src
    key *= n
    key += dst
    key.sort()
    if dedupe:
        key = key[_run_starts(key)]
    return np.divmod(key, n)


def _sorted_rows(rows: np.ndarray, targets: np.ndarray, num_rows: int,
                 dedupe: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(per-row counts, targets)`` with every row's targets sorted and,
    with ``dedupe``, distinct; the rows keep their order.

    ``rows`` holds the ascending piece-local row of every target (and is
    consumed).  Below ``1 << shift`` lie all targets, so the key
    ``row << shift | target`` orders the piece as the global
    ``src * n + dst`` key orders the graph, and shifts and masks decode
    it; when the key could overflow ``int64`` a two-key ``lexsort``
    does the same job.
    """
    if not len(targets):
        return np.zeros(num_rows, dtype=np.int64), targets
    shift = int(targets.max()).bit_length()
    if num_rows << shift <= 2 ** 63:  # the largest key fits int64
        key = rows
        key <<= shift
        key |= targets
        key.sort()
        if dedupe:
            keep = _run_starts(key)
            if not keep.all():
                key = key[keep]
        targets = key & ((1 << shift) - 1)
        key >>= shift
        rows = key
    else:
        order = np.lexsort((targets, rows))
        rows, targets = rows[order], targets[order]
        if dedupe:
            keep = _run_starts(targets)
            keep[1:] |= rows[1:] != rows[:-1]
            rows, targets = rows[keep], targets[keep]
    return np.bincount(rows, minlength=num_rows), targets


class GraphBuilder:
    """Accumulates directed edges and finalizes a CSR :class:`DiGraph`.

    Parameters
    ----------
    num_vertices:
        Fix the vertex-count up front, or leave ``None`` to infer it from
        the largest id seen (plus one).
    dedupe:
        Drop duplicate ``(u, v)`` pairs at build time (default True — all
        paper datasets are simple graphs).
    allow_self_loops:
        Keep ``(v, v)`` edges (default False; the partitioning metrics in
        the paper assume simple graphs, where a self loop can never be cut).
    """

    def __init__(self, num_vertices: int | None = None, *,
                 dedupe: bool = True, allow_self_loops: bool = False) -> None:
        self._fixed_n = num_vertices
        self._dedupe = dedupe
        self._allow_self_loops = allow_self_loops
        self._sources: list[int] = []
        self._targets: list[int] = []
        # Bulk appends from the chunked readers: (src, dst) array pairs
        # kept as-is until build() concatenates them — no per-edge Python.
        self._array_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        # Row appends: (row vertices, per-row counts) per piece, rows
        # already filtered, sorted and deduplicated, and all their
        # targets in one buffer grown in place.  While the vertices rise
        # strictly across every piece, build() stitches them into the
        # CSR without ever forming (src, dst) pairs.
        self._row_pieces: list[tuple[np.ndarray, np.ndarray]] = []
        self._row_targets = np.empty(0, dtype=np.int64)
        self._num_row_targets = 0
        self._row_targets_shared = False
        self._rows_ascending = True
        self._last_row = -1
        self._max_id = -1

    # ------------------------------------------------------------------
    def add_edge(self, source: int, target: int) -> "GraphBuilder":
        """Record one directed edge; returns self for chaining."""
        if source < 0 or target < 0:
            raise ValueError("vertex ids must be non-negative")
        if source == target and not self._allow_self_loops:
            return self
        self._sources.append(source)
        self._targets.append(target)
        if source > self._max_id:
            self._max_id = source
        if target > self._max_id:
            self._max_id = target
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Record many directed edges."""
        for source, target in edges:
            self.add_edge(source, target)
        return self

    def add_adjacency(self, vertex: int,
                      neighbors: Sequence[int]) -> "GraphBuilder":
        """Record one adjacency-list row (the paper's streamed record)."""
        for u in neighbors:
            self.add_edge(vertex, int(u))
        # An isolated vertex still extends the id space.
        if vertex > self._max_id:
            self._max_id = vertex
        return self

    def add_edge_arrays(self, sources: np.ndarray,
                        targets: np.ndarray) -> "GraphBuilder":
        """Record a batch of directed edges from parallel id arrays.

        The vectorized twin of :meth:`add_edge`, used by the chunked
        readers: same negative-id validation and self-loop filtering,
        one NumPy pass instead of a Python loop per edge.
        """
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise ValueError("sources and targets must be matching "
                             "one-dimensional arrays")
        if len(sources) == 0:
            return self
        if int(sources.min()) < 0 or int(targets.min()) < 0:
            raise ValueError("vertex ids must be non-negative")
        if not self._allow_self_loops:
            keep = sources != targets
            if not keep.all():
                # Dropped self-loops do not extend the id space, exactly
                # like add_edge's early return.
                sources, targets = sources[keep], targets[keep]
                if len(sources) == 0:
                    return self
        self._max_id = max(self._max_id, int(sources.max()),
                           int(targets.max()))
        self._array_chunks.append((sources, targets))
        return self

    def add_rows(self, vertices: np.ndarray, counts: np.ndarray,
                 targets: np.ndarray) -> "GraphBuilder":
        """Record adjacency rows given as one CSR piece.

        Row ``r`` is vertex ``vertices[r]`` with the next ``counts[r]``
        entries of ``targets`` as its out-neighbors; every row extends
        the id space, as :meth:`add_adjacency` does.  Self-loops are
        dropped and each row is sorted and deduplicated here, with
        temporaries the size of the piece, so the chunked adjacency
        reader hands over whole token segments and no edge ever exists
        as a ``(src, dst)`` pair.
        """
        vertices = np.ascontiguousarray(vertices, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if (vertices.ndim != 1 or counts.shape != vertices.shape
                or targets.ndim != 1):
            raise ValueError("vertices and counts must be matching "
                             "one-dimensional arrays, targets "
                             "one-dimensional")
        if (len(counts) and int(counts.min()) < 0) or \
                int(counts.sum()) != len(targets):
            raise ValueError("counts must be non-negative and sum to "
                             "len(targets)")
        if not len(vertices):
            return self
        if int(vertices.min()) < 0 or (
                len(targets) and int(targets.min()) < 0):
            raise ValueError("vertex ids must be non-negative")
        # A dropped self-loop's target is its row's vertex, which
        # extends the id space anyway.
        self._max_id = max(self._max_id, int(vertices.max()),
                           int(targets.max()) if len(targets) else -1)
        if self._rows_ascending:
            self._rows_ascending = (
                int(vertices[0]) > self._last_row
                and bool(np.all(vertices[1:] > vertices[:-1])))
            self._last_row = int(vertices[-1])
        rows = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
        if not self._allow_self_loops:
            keep = targets != vertices[rows]
            if not keep.all():
                rows, targets = rows[keep], targets[keep]
        counts, targets = _sorted_rows(rows, targets, len(vertices),
                                       self._dedupe)
        self._row_pieces.append((vertices, counts))
        self._append_row_targets(targets)
        return self

    def _append_row_targets(self, targets: np.ndarray) -> None:
        """Copy ``targets`` onto the row-target buffer, growing it in
        place (``realloc``: a large buffer moves by remapping pages, not
        by copying them), so the rows never sit in the heap as pieces."""
        end = self._num_row_targets + len(targets)
        buffer = self._row_targets
        if self._row_targets_shared:  # a built graph holds it
            buffer = buffer.copy()
            self._row_targets_shared = False
        if end > len(buffer):
            buffer.resize(max(end, len(buffer) + len(buffer) // 2),
                          refcheck=False)
        buffer[self._num_row_targets:end] = targets
        self._row_targets = buffer
        self._num_row_targets = end

    # ------------------------------------------------------------------
    def build(self, name: str = "graph") -> DiGraph:
        """Finalize into an immutable CSR graph.

        Out-neighbor rows come out sorted ascending, which downstream code
        (``DiGraph.has_edge``, window lookups) relies on.
        """
        n = self._fixed_n if self._fixed_n is not None else self._max_id + 1
        n = max(n, 0)
        if self._max_id >= n:
            raise ValueError(
                f"edge references vertex {self._max_id} but num_vertices={n}")
        # Refused before anything |V|-sized exists, on either path.
        if n > _MAX_KEY_VERTICES:
            raise ValueError(
                f"num_vertices={n} exceeds {_MAX_KEY_VERTICES}, "
                "the largest id space whose edge keys fit int64")
        if (self._row_pieces and self._rows_ascending
                and not self._sources and not self._array_chunks):
            return self._stitch_rows(n, name)
        # Otherwise the rows become pairs and join the general path.
        chunks = list(self._array_chunks)
        if self._row_pieces:
            chunks.append((
                np.concatenate([np.repeat(vertices, counts)
                                for vertices, counts in self._row_pieces]),
                self._row_targets[:self._num_row_targets]))
        src = np.asarray(self._sources, dtype=np.int64)
        dst = np.asarray(self._targets, dtype=np.int64)
        if chunks:
            src = np.concatenate([src] + [s for s, _ in chunks])
            dst = np.concatenate([dst] + [t for _, t in chunks])
        src, dst = _sorted_edges(src, dst, n, self._dedupe)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if len(src):
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return DiGraph(indptr, dst, name=name)

    def _stitch_rows(self, n: int, name: str) -> DiGraph:
        """The CSR straight from the row pieces: each source has one
        row, already in final form, and the rows arrive in id order."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        for vertices, counts in self._row_pieces:
            indptr[vertices + 1] = counts
        np.cumsum(indptr, out=indptr)
        # Trimmed in place and handed over: the graph's indices are the
        # buffer itself, which the next append copies before growing.
        if not self._row_targets_shared:
            self._row_targets.resize(self._num_row_targets, refcheck=False)
            self._row_targets_shared = True
        return DiGraph(indptr, self._row_targets, name=name)


def from_edges(edges: Iterable[tuple[int, int]],
               num_vertices: int | None = None,
               name: str = "graph", **kwargs) -> DiGraph:
    """Build a graph from an iterable of ``(source, target)`` pairs."""
    return GraphBuilder(num_vertices, **kwargs).add_edges(edges).build(name)


def from_adjacency(adjacency: Mapping[int, Sequence[int]],
                   num_vertices: int | None = None,
                   name: str = "graph", **kwargs) -> DiGraph:
    """Build a graph from a ``{vertex: [out-neighbors]}`` mapping."""
    builder = GraphBuilder(num_vertices, **kwargs)
    for vertex, neighbors in adjacency.items():
        builder.add_adjacency(vertex, neighbors)
    return builder.build(name)
