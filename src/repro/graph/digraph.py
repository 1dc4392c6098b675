"""Compact directed-graph substrate used throughout the reproduction.

The paper (Sec. II) assumes a directed graph ``G = (V, E)`` whose vertices are
consecutively numbered ``0 .. |V|-1`` and stored as adjacency lists of
*out*-neighbors — the format streamed by all partitioners.  This module
provides :class:`DiGraph`, an immutable CSR (compressed sparse row)
representation of exactly that structure, plus cheap derived views (reverse
graph, degree arrays, undirected edge iteration) needed by the offline
baselines and evaluation metrics.

The CSR layout keeps memory near the information-theoretic floor for Python:
two NumPy integer arrays, ``indptr`` of length ``|V|+1`` and ``indices`` of
length ``|E|``.  ``out_neighbors(v)`` is a zero-copy slice.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["DiGraph", "AdjacencyRecord"]


class AdjacencyRecord(NamedTuple):
    """One streamed graph record: a vertex id plus its out-neighbor list.

    This is the unit of work in every streaming partitioner (the paper's
    "currently arrived vertex v with N_out(v)").  Immutable and unpacks
    as ``v, neighbors = record``.  A named tuple, not a frozen
    dataclass: a stream builds one per vertex, and the dataclass pays
    ``object.__setattr__`` per field.
    """

    vertex: int
    neighbors: np.ndarray

    @property
    def out_degree(self) -> int:
        """Number of out-neighbors carried by this record."""
        return int(len(self.neighbors))


class DiGraph:
    """An immutable directed graph over consecutively numbered vertices.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; out-neighbors of
        vertex ``v`` live in ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        Flat out-neighbor array (targets of every directed edge, grouped by
        source).
    name:
        Optional human-readable dataset name (used in benchmark reports).

    Use :class:`repro.graph.builder.GraphBuilder` or the readers in
    :mod:`repro.graph.io` to construct instances; the constructor only
    validates shape invariants.
    """

    __slots__ = ("_indptr", "_indices", "_name", "_reverse", "_in_degrees")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 name: str = "graph") -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0:
            raise ValueError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
                f"({len(indices)})")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(
                "edge targets must be valid vertex ids in [0, num_vertices)")
        self._indptr = indptr
        self._indices = indices
        self._name = name
        self._reverse: DiGraph | None = None
        self._in_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|V|`` — number of vertices."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """``|E|`` — number of directed edges."""
        return len(self._indices)

    @property
    def name(self) -> str:
        """Dataset name attached at construction time."""
        return self._name

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only view)."""
        view = self._indptr.view()
        view.flags.writeable = False
        return view

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only view)."""
        view = self._indices.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return (f"DiGraph(name={self._name!r}, |V|={self.num_vertices}, "
                f"|E|={self.num_edges})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self) -> int:  # immutable, so hashable by identity content
        return hash((self.num_vertices, self.num_edges,
                     self._indices[:16].tobytes()))

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors ``N_out(v)`` as a zero-copy array slice."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors ``N_in(v)``; materializes the reverse graph once.

        Streaming partitioners never call this (the whole point of the
        paper's Γ expectation tables is that in-neighbors are *not*
        available); it exists for the offline baselines and metric checks.
        """
        return self.reverse().out_neighbors(v)

    def out_degree(self, v: int) -> int:
        """``|N_out(v)|``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees (cached bincount over targets)."""
        if self._in_degrees is None:
            self._in_degrees = np.bincount(
                self._indices, minlength=self.num_vertices).astype(np.int64)
        return self._in_degrees

    def max_out_degree(self) -> int:
        """The paper's ``max d`` appearing in space-complexity bounds."""
        if self.num_vertices == 0:
            return 0
        return int(self.out_degrees().max())

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge ``(u, v)`` exists."""
        row = self.out_neighbors(u)
        # Rows are sorted by GraphBuilder; fall back to linear scan if not.
        i = np.searchsorted(row, v)
        if i < len(row) and row[i] == v:
            return True
        return bool(np.any(row == v))

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def records(self) -> Iterator[AdjacencyRecord]:
        """Iterate adjacency records in vertex-id order (the stream order)."""
        for v in range(self.num_vertices):
            yield AdjacencyRecord(v, self.out_neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all directed edges ``(source, target)``."""
        for v in range(self.num_vertices):
            for u in self.out_neighbors(v):
                yield v, int(u)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, targets)`` arrays covering every edge.

        ``sources`` is built per call; ``targets`` is the read-only
        :attr:`indices` view, not a copy — copy it before writing.
        """
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                            self.out_degrees())
        return sources, self.indices

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The transpose graph (edges flipped); computed once and cached."""
        if self._reverse is None:
            sources, targets = self.edge_array()
            order = np.argsort(targets, kind="stable")
            rev_indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(targets, minlength=self.num_vertices),
                      out=rev_indptr[1:])
            self._reverse = DiGraph(rev_indptr, sources[order],
                                    name=f"{self._name}^T")
        return self._reverse

    def to_undirected_csr(self) -> "DiGraph":
        """Symmetrized graph with deduplicated edges.

        The multilevel (METIS-like) and label-propagation (XtraPuLP-like)
        offline baselines both operate on the undirected structure, as their
        real counterparts do.
        """
        src, dst = self.edge_array()
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        keep = all_src != all_dst  # drop self loops in undirected view
        all_src, all_dst = all_src[keep], all_dst[keep]
        if len(all_src) == 0:
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            return DiGraph(indptr, np.empty(0, dtype=np.int64),
                           name=f"{self._name}~")
        # Deduplicate (src, dst) pairs via a sort on the packed key.
        key = all_src * self.num_vertices + all_dst
        order = np.argsort(key, kind="stable")
        key = key[order]
        uniq = np.empty(len(key), dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        all_src = all_src[order][uniq]
        all_dst = all_dst[order][uniq]
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_src, minlength=self.num_vertices),
                  out=indptr[1:])
        return DiGraph(indptr, all_dst, name=f"{self._name}~")

    def relabeled(self, permutation: Sequence[int] | np.ndarray,
                  name: str | None = None) -> "DiGraph":
        """Return a copy with vertex ``v`` renamed to ``permutation[v]``.

        ``permutation`` must be a bijection over ``range(num_vertices)``.
        Used by :mod:`repro.graph.relabel` to impose or destroy the
        topology locality that SPNL's Range pre-assignment exploits.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if len(perm) != self.num_vertices:
            raise ValueError("permutation length must equal num_vertices")
        check = np.zeros(self.num_vertices, dtype=bool)
        check[perm] = True
        if not check.all():
            raise ValueError("permutation must be a bijection")
        src, dst = self.edge_array()
        new_src, new_dst = perm[src], perm[dst]
        order = np.lexsort((new_dst, new_src))
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_src, minlength=self.num_vertices),
                  out=indptr[1:])
        return DiGraph(indptr, new_dst[order],
                       name=name or f"{self._name}*")

    # ------------------------------------------------------------------
    # Size accounting (used by the memory model)
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (excludes cached reverse graph)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    @staticmethod
    def empty(num_vertices: int, name: str = "empty") -> "DiGraph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return DiGraph(np.zeros(num_vertices + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64), name=name)
