"""Greedy K-way boundary refinement (multilevel phase 3).

After projecting a partition from a coarser level, boundary vertices are
moved to the neighboring partition with the largest positive gain (external
connection minus internal connection) as long as the balance constraint
holds — the K-way FM/KL variant used by multilevel partitioners.  Each pass
recomputes connectivity vectorized over all edges, then applies moves in
descending-gain order with live balance accounting.
"""

from __future__ import annotations

import numpy as np

from .wgraph import WeightedGraph

__all__ = ["partition_edge_cut", "refine"]


def partition_edge_cut(graph: WeightedGraph, part: np.ndarray) -> int:
    """Weighted cut of a partition on a weighted graph (each undirected
    edge counted once)."""
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    crossing = part[src] != part[graph.indices]
    return int(graph.edge_weights[crossing].sum() // 2)


def _connectivity(graph: WeightedGraph, part: np.ndarray,
                  num_partitions: int) -> np.ndarray:
    """``conn[v, j]`` = total edge weight from ``v`` into partition ``j``."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    flat = src * num_partitions + part[graph.indices]
    conn = np.bincount(flat, weights=graph.edge_weights,
                       minlength=n * num_partitions)
    return conn.reshape(n, num_partitions)


def refine(graph: WeightedGraph, part: np.ndarray, num_partitions: int, *,
           slack: float = 1.05, max_passes: int = 8,
           min_gain_fraction: float = 0.001) -> np.ndarray:
    """Refine ``part`` in place-style (returns a new array).

    Stops early when a pass improves the cut by less than
    ``min_gain_fraction`` of the current cut, mirroring the diminishing-
    returns cutoff real refiners use.
    """
    part = part.astype(np.int32).copy()
    n = graph.num_vertices
    weights = graph.vertex_weights
    total = int(weights.sum())
    quota = max(1.0, slack * total / num_partitions)
    part_weight = np.bincount(part, weights=weights,
                              minlength=num_partitions).astype(np.int64)
    previous_cut = partition_edge_cut(graph, part)

    for _ in range(max_passes):
        before_pass = part.copy()
        before_weights = part_weight.copy()
        conn = _connectivity(graph, part, num_partitions)
        internal = conn[np.arange(n), part]
        ext = conn.copy()
        ext[np.arange(n), part] = -1
        best_target = np.argmax(ext, axis=1).astype(np.int32)
        best_ext = ext[np.arange(n), best_target]
        gain = best_ext - internal
        movers = np.nonzero(gain > 0)[0]
        if len(movers) == 0:
            break
        # Highest gains first; moves applied greedily with live balance
        # but connectivity frozen for the pass (recomputed next pass).
        movers = movers[np.argsort(-gain[movers], kind="stable")]
        moved = 0
        for v in movers.tolist():
            src_pid = part[v]
            dst_pid = best_target[v]
            wv = weights[v]
            if part_weight[dst_pid] + wv > quota:
                continue
            # Keep the source partition from emptying out entirely.
            if part_weight[src_pid] - wv <= 0:
                continue
            part[v] = dst_pid
            part_weight[src_pid] -= wv
            part_weight[dst_pid] += wv
            moved += 1
        if moved == 0:
            break
        cut = partition_edge_cut(graph, part)
        if cut > previous_cut:
            # Stale-gain thrash made this pass a net loss: revert it.
            part = before_pass
            part_weight = before_weights
            break
        if previous_cut - cut < min_gain_fraction * max(previous_cut, 1):
            previous_cut = cut
            break
        previous_cut = cut
    return part
