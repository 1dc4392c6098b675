"""Partitioning-quality metrics from the paper's evaluation (Sec. VI-A).

* ``ECR`` — Edge Cut Ratio ``|D| / |E|``: fraction of directed edges whose
  endpoints land in different partitions (lower is better);
* ``δ_v`` — vertex balance factor: ``max_i |V_i| · K / |V|`` (Eq. 1 solved
  for the smallest admissible δ; 1.0 is perfect balance);
* ``δ_e`` — edge balance factor, same with ``|E_i|`` (Eq. 2).

All computations are vectorized over the CSR arrays, so evaluating a
partitioning costs O(|E|) with small constants; the per-edge ones walk
the CSR in vertex blocks, so the memory they add is O(|V|) plus a
constant, never O(|E|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..graph.digraph import DiGraph
from .assignment import UNASSIGNED, PartitionAssignment

__all__ = ["QualityReport", "evaluate", "edge_cut", "edge_cut_ratio",
           "vertex_balance", "edge_balance", "cut_matrix"]


@dataclass(frozen=True)
class QualityReport:
    """Full quality snapshot of one partitioning."""

    graph_name: str
    num_partitions: int
    num_cut_edges: int
    ecr: float
    delta_v: float
    delta_e: float
    vertex_counts: np.ndarray
    edge_counts: np.ndarray

    def as_row(self) -> dict:
        """Flat dict matching the paper's table columns."""
        return {
            "graph": self.graph_name,
            "K": self.num_partitions,
            "ECR": round(self.ecr, 4),
            "delta_v": round(self.delta_v, 2),
            "delta_e": round(self.delta_e, 2),
            "cut_edges": self.num_cut_edges,
        }

    def __str__(self) -> str:
        return (f"{self.graph_name} K={self.num_partitions}: "
                f"ECR={self.ecr:.4f} δv={self.delta_v:.2f} "
                f"δe={self.delta_e:.2f}")


#: Edges per block of :func:`_edge_part_blocks`: its temporaries stay
#: near a quarter of a MiB whatever the graph's size.
_BLOCK_EDGES = 1 << 14


def _edge_part_blocks(graph: DiGraph, route: np.ndarray
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(source partitions, target partitions)`` of every edge, in
    blocks of whole vertices holding about :data:`_BLOCK_EDGES` edges
    (one vertex of higher degree is a block of its own).

    The CSR is read as it is — ``repeat(route[lo:hi], degrees)`` beside
    ``route[indices[a:b]]`` — so no |E|-long array is ever formed.
    """
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    lo = 0
    while lo < n:
        a = int(indptr[lo])
        hi = int(np.searchsorted(indptr, a + _BLOCK_EDGES, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        b = int(indptr[hi])
        if b > a:
            yield (np.repeat(route[lo:hi], np.diff(indptr[lo:hi + 1])),
                   route[indices[a:b]])
        lo = hi


def edge_cut(graph: DiGraph, assignment: PartitionAssignment) -> int:
    """``|D|`` — the number of cutting (cross-partition) directed edges."""
    return sum(int(np.count_nonzero(src != dst)) for src, dst in
               _edge_part_blocks(graph, assignment.route))


def edge_cut_ratio(graph: DiGraph,
                   assignment: PartitionAssignment) -> float:
    """``ECR = |D| / |E|`` (0 when the graph has no edges)."""
    if graph.num_edges == 0:
        return 0.0
    return edge_cut(graph, assignment) / graph.num_edges


def _balance(counts: np.ndarray, total: int, k: int) -> float:
    """How far the largest of ``counts`` exceeds the ideal ``total / k``."""
    if total == 0:
        return 1.0
    return float(counts.max() / (total / k))


def vertex_balance(graph: DiGraph,
                   assignment: PartitionAssignment) -> float:
    """``δ_v``: how far the largest partition exceeds the ideal |V|/K."""
    return _balance(assignment.vertex_counts(), graph.num_vertices,
                    assignment.num_partitions)


def edge_balance(graph: DiGraph,
                 assignment: PartitionAssignment) -> float:
    """``δ_e``: how far the edge-heaviest partition exceeds |E|/K."""
    return _balance(assignment.edge_counts(graph), graph.num_edges,
                    assignment.num_partitions)


def cut_matrix(graph: DiGraph,
               assignment: PartitionAssignment) -> np.ndarray:
    """K×K matrix of cross-partition edge counts.

    Entry ``[i, j]`` counts directed edges from ``P_i`` to ``P_j``; the
    off-diagonal sum equals :func:`edge_cut`.  The BSP runtime uses this
    as its communication matrix.
    """
    k = assignment.num_partitions
    counts = np.zeros(k * k, dtype=np.int64)
    for src, dst in _edge_part_blocks(graph, assignment.route):
        valid = (src != UNASSIGNED) & (dst != UNASSIGNED)
        flat = src[valid].astype(np.int64) * k + dst[valid]
        counts += np.bincount(flat, minlength=k * k)
    return counts.reshape(k, k)


def evaluate(graph: DiGraph,
             assignment: PartitionAssignment) -> QualityReport:
    """Compute the full paper metric set for one partitioning.

    Raises if the assignment is incomplete — the paper's metrics are only
    defined over total partitionings.
    """
    assignment.validate(graph.num_vertices)
    cut = edge_cut(graph, assignment)
    k = assignment.num_partitions
    vertex_counts = assignment.vertex_counts()
    edge_counts = assignment.edge_counts(graph)
    return QualityReport(
        graph_name=graph.name,
        num_partitions=k,
        num_cut_edges=cut,
        ecr=cut / graph.num_edges if graph.num_edges else 0.0,
        delta_v=_balance(vertex_counts, graph.num_vertices, k),
        delta_e=_balance(edge_counts, graph.num_edges, k),
        vertex_counts=vertex_counts,
        edge_counts=edge_counts,
    )
