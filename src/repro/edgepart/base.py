"""Streaming *edge* partitioning substrate (paper Sec. VII future work).

Vertex partitioning assigns vertices and cuts edges; edge partitioning
assigns **edges** and replicates vertices — the quality metric becomes
the *replication factor* (average number of partitions holding a copy of
each vertex), which dominates communication in GAS-style systems like
PowerGraph.  The paper's conclusion claims its knowledge-utilization
techniques transfer to this setting; :mod:`repro.edgepart` implements
that transfer (:class:`~repro.edgepart.spnl_edge.SPNLEdgePartitioner`)
and the heuristic it extends (:class:`~repro.edgepart.hdrf
.HDRFPartitioner`), so the claim can be measured.

This module provides the shared machinery: the replica-set state, the
one-pass driver, and the result type.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..graph.digraph import DiGraph

__all__ = ["EdgePartitionState", "EdgeAssignment", "EdgeStreamResult",
           "StreamingEdgePartitioner", "edge_stream"]


def edge_stream(graph: DiGraph) -> Iterator[tuple[int, int]]:
    """Edges in storage order (grouped by source id — crawl order).

    The id-ordered edge stream is the edge-partitioning analogue of the
    paper's "vertices are consecutively numbered and serially streamed"
    premise, and is what gives locality-aware edge partitioners their
    opening.
    """
    yield from graph.edges()


class EdgePartitionState:
    """Mutable local view of a streaming edge partitioner.

    Tracks, per vertex, the set of partitions holding a replica (a
    boolean |V|×K matrix — K ≤ 64 keeps this small), per-partition edge
    loads, and the running partial degree of each vertex (HDRF's
    signal).
    """

    __slots__ = ("num_partitions", "num_vertices", "replicas",
                 "edge_loads", "partial_degrees", "assigned_edges")

    def __init__(self, num_partitions: int, num_vertices: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        self.replicas = np.zeros((num_vertices, num_partitions),
                                 dtype=bool)
        self.edge_loads = np.zeros(num_partitions, dtype=np.int64)
        self.partial_degrees = np.zeros(num_vertices, dtype=np.int64)
        self.assigned_edges = 0

    # ------------------------------------------------------------------
    def replica_mask(self, vertex: int) -> np.ndarray:
        """Boolean length-K mask of partitions replicating ``vertex``."""
        return self.replicas[vertex]

    def place(self, src: int, dst: int, pid: int) -> None:
        """Assign edge ``(src, dst)`` to ``pid`` and update replicas."""
        if not 0 <= pid < self.num_partitions:
            raise ValueError(f"invalid partition id {pid}")
        self.replicas[src, pid] = True
        self.replicas[dst, pid] = True
        self.edge_loads[pid] += 1
        self.partial_degrees[src] += 1
        self.partial_degrees[dst] += 1
        self.assigned_edges += 1

    def replication_factor(self) -> float:
        """Mean replicas per vertex *that appears in some edge*."""
        counts = self.replicas.sum(axis=1)
        touched = counts > 0
        if not touched.any():
            return 0.0
        return float(counts[touched].mean())

    def load_balance(self) -> float:
        """``max load / ideal load`` (the δ_e analogue)."""
        if self.assigned_edges == 0:
            return 1.0
        ideal = self.assigned_edges / self.num_partitions
        return float(self.edge_loads.max() / ideal)


@dataclass
class EdgeAssignment:
    """Immutable outcome: partition id per edge (in stream order)."""

    edge_pids: np.ndarray
    num_partitions: int
    replicas: np.ndarray  # final |V|×K replica matrix

    @property
    def num_edges(self) -> int:
        return len(self.edge_pids)

    def replication_factor(self) -> float:
        counts = self.replicas.sum(axis=1)
        touched = counts > 0
        return float(counts[touched].mean()) if touched.any() else 0.0

    def edge_counts(self) -> np.ndarray:
        return np.bincount(self.edge_pids,
                           minlength=self.num_partitions).astype(np.int64)


@dataclass
class EdgeStreamResult:
    """Result of one streaming edge-partitioning run."""

    assignment: EdgeAssignment
    partitioner: str
    elapsed_seconds: float
    num_partitions: int
    stats: dict[str, Any] = field(default_factory=dict)


class StreamingEdgePartitioner(ABC):
    """One-pass edge partitioner skeleton.

    Subclasses implement :meth:`_choose`, receiving the current edge and
    the shared state, and may override :meth:`_setup` /
    :meth:`_after_place` for extra knowledge structures (the SPNL-E
    variant does).  Balance is enforced the same way as on the vertex
    side: partitions at ``slack·|E|/K`` edges become ineligible.
    """

    def __init__(self, num_partitions: int, *, slack: float = 1.1) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        self.num_partitions = num_partitions
        self.slack = slack

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}(K={self.num_partitions})"

    # -- hooks -----------------------------------------------------------
    def _setup(self, graph: DiGraph, state: EdgePartitionState) -> None:
        """Allocate partitioner-specific state before the pass."""

    @abstractmethod
    def _choose(self, src: int, dst: int,
                state: EdgePartitionState) -> int:
        """Pick the partition for one edge."""

    def _after_place(self, src: int, dst: int, pid: int,
                     state: EdgePartitionState) -> None:
        """Update partitioner-specific state after a placement."""

    def _extra_stats(self) -> dict[str, Any]:
        return {}

    # -- shared machinery -------------------------------------------------
    def _capacity(self, num_edges: int) -> float:
        return max(1.0, np.ceil(self.slack * num_edges
                                / self.num_partitions))

    def eligible(self, state: EdgePartitionState,
                 capacity: float) -> np.ndarray:
        return state.edge_loads < capacity

    def pick_best(self, scores: np.ndarray, state: EdgePartitionState,
                  capacity: float) -> int:
        """Argmax over eligible partitions; ties to the lightest load."""
        masked = np.where(self.eligible(state, capacity), scores, -np.inf)
        best = masked.max()
        if not np.isfinite(best):
            return int(np.argmin(state.edge_loads))
        candidates = np.nonzero(masked == best)[0]
        if len(candidates) == 1:
            return int(candidates[0])
        return int(candidates[np.argmin(state.edge_loads[candidates])])

    def partition(self, graph: DiGraph) -> EdgeStreamResult:
        """Run the single pass over ``graph``'s edges in storage order."""
        state = EdgePartitionState(self.num_partitions,
                                   graph.num_vertices)
        self._capacity_value = self._capacity(graph.num_edges)
        self._setup(graph, state)
        pids = np.empty(graph.num_edges, dtype=np.int32)
        start = time.perf_counter()
        for i, (src, dst) in enumerate(edge_stream(graph)):
            pid = self._choose(src, dst, state)
            state.place(src, dst, pid)
            self._after_place(src, dst, pid, state)
            pids[i] = pid
        elapsed = time.perf_counter() - start
        assignment = EdgeAssignment(pids, self.num_partitions,
                                    state.replicas.copy())
        return EdgeStreamResult(
            assignment=assignment,
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=self.num_partitions,
            stats=self._extra_stats(),
        )
