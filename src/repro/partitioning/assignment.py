"""Partition assignments (the paper's "vertex-assignment route table").

Every partitioner — streaming or offline — produces a
:class:`PartitionAssignment`: a dense ``vertex id -> partition id`` mapping
plus the partition count ``K``.  The object enforces the problem definition
of Sec. II (disjoint partitions covering all of ``V``) via
:meth:`validate`, and provides the per-partition tallies the balance
metrics (Eqs. 1–2) are computed from.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..graph.digraph import DiGraph

__all__ = ["PartitionAssignment", "UNASSIGNED"]

UNASSIGNED = -1
"""Sentinel partition id for vertices not (yet) placed."""


class PartitionAssignment:
    """An immutable ``vertex -> partition`` mapping for ``K`` partitions."""

    __slots__ = ("_route", "_num_partitions")

    def __init__(self, route: Sequence[int] | np.ndarray,
                 num_partitions: int) -> None:
        route = np.ascontiguousarray(route, dtype=np.int32)
        if route.ndim != 1:
            raise ValueError("route table must be one-dimensional")
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if len(route) and route.max() >= num_partitions:
            raise ValueError("route table references partition id >= K")
        if len(route) and route.min() < UNASSIGNED:
            raise ValueError("route table has invalid negative entries")
        self._route = route
        self._num_partitions = num_partitions

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """``K``."""
        return self._num_partitions

    @property
    def num_vertices(self) -> int:
        """``|V|`` covered by the route table."""
        return len(self._route)

    @property
    def route(self) -> np.ndarray:
        """The raw route table (read-only view)."""
        view = self._route.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._route)

    def __getitem__(self, vertex: int) -> int:
        return int(self._route[vertex])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return (self._num_partitions == other._num_partitions
                and np.array_equal(self._route, other._route))

    def __repr__(self) -> str:
        return (f"PartitionAssignment(K={self._num_partitions}, "
                f"|V|={len(self._route)})")

    # ------------------------------------------------------------------
    def partition_of(self, vertex: int) -> int:
        """Partition id of ``vertex`` (``UNASSIGNED`` if not placed)."""
        return int(self._route[vertex])

    def is_complete(self) -> bool:
        """True when every vertex has been placed."""
        return bool(np.all(self._route != UNASSIGNED))

    def vertices_in(self, pid: int) -> np.ndarray:
        """Ids of all vertices assigned to partition ``pid``."""
        return np.nonzero(self._route == pid)[0]

    def vertex_counts(self) -> np.ndarray:
        """``|V_i|`` for every partition (length-K array)."""
        placed = self._route[self._route != UNASSIGNED]
        return np.bincount(placed, minlength=self._num_partitions
                           ).astype(np.int64)

    def edge_counts(self, graph: DiGraph) -> np.ndarray:
        """``|E_i|`` per partition: edges whose *source* lives in ``P_i``.

        Matches the paper's Algorithm 1 accounting (a vertex brings its
        whole out-adjacency into its partition), summed over vertices:
        O(|V|), with no per-edge array.
        """
        route = self._route[:graph.num_vertices]
        placed = route != UNASSIGNED
        counts = np.zeros(self._num_partitions, dtype=np.int64)
        np.add.at(counts, route[placed], graph.out_degrees()[placed])
        return counts

    def validate(self, num_vertices: int | None = None) -> None:
        """Raise ``ValueError`` unless this is a complete, disjoint cover.

        Disjointness is inherent to a route table (one entry per vertex);
        completeness and domain size are what can actually go wrong.
        """
        if num_vertices is not None and len(self._route) != num_vertices:
            raise ValueError(
                f"route table covers {len(self._route)} vertices, "
                f"expected {num_vertices}")
        if not self.is_complete():
            missing = int(np.sum(self._route == UNASSIGNED))
            raise ValueError(f"{missing} vertices left unassigned")

    # ------------------------------------------------------------------
    def with_moved(self, vertex: int, pid: int) -> "PartitionAssignment":
        """Functional update: a copy with one vertex reassigned."""
        route = self._route.copy()
        route[vertex] = pid
        return PartitionAssignment(route, self._num_partitions)

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]],
                    num_vertices: int) -> "PartitionAssignment":
        """Build from explicit per-partition vertex lists."""
        blocks = [list(b) for b in blocks]
        route = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        for pid, members in enumerate(blocks):
            for v in members:
                if route[v] != UNASSIGNED:
                    raise ValueError(f"vertex {v} appears in two blocks")
                route[v] = pid
        return PartitionAssignment(route, max(1, len(blocks)))
