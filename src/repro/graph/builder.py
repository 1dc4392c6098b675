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


def _sorted_edges(src: np.ndarray, dst: np.ndarray, n: int,
                  dedupe: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` ordered by source, then target; duplicates dropped.

    Every id is below ``n``, so the single key ``src * n + dst`` orders
    the pairs exactly as the pairs order themselves: one ``int64`` sort
    and one ``divmod`` replace a two-key ``lexsort`` and two gathers.
    ``src`` is overwritten with the key.
    """
    if n > _MAX_KEY_VERTICES:
        raise ValueError(f"num_vertices={n} exceeds {_MAX_KEY_VERTICES}, "
                         "the largest id space whose edge keys fit int64")
    if not len(src):
        return src, dst
    key = src
    key *= n
    key += dst
    key.sort()
    if dedupe:
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return np.divmod(key, n)


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

    def note_vertex(self, vertex: int) -> "GraphBuilder":
        """Extend the id space to cover ``vertex`` (isolated rows)."""
        if vertex < 0:
            raise ValueError("vertex ids must be non-negative")
        if vertex > self._max_id:
            self._max_id = vertex
        return self

    @property
    def num_pending_edges(self) -> int:
        """Edges recorded so far (before dedupe)."""
        return len(self._sources) + sum(
            len(src) for src, _ in self._array_chunks)

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
        src = np.asarray(self._sources, dtype=np.int64)
        dst = np.asarray(self._targets, dtype=np.int64)
        if self._array_chunks:
            src = np.concatenate(
                [src] + [s for s, _ in self._array_chunks])
            dst = np.concatenate(
                [dst] + [t for _, t in self._array_chunks])
        src, dst = _sorted_edges(src, dst, n, self._dedupe)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if len(src):
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return DiGraph(indptr, dst, name=name)


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
