"""SPNL-E: the paper's knowledge-utilization techniques on edge
partitioning (its Sec. VII future-work claim, implemented and measured).

Three transfers from the vertex partitioner:

1. **Multiplicity expectation (Γ analogue).**  Greedy/HDRF only know
   *whether* a vertex is replicated in a partition (a binary mask).
   SPNL-E counts *how many* of the partition's edges touch the vertex —
   the same "how much does P_i expect x" signal as the vertex side's
   Γ tables — normalized by the vertex's partial degree into an
   affinity in [0, 1].
2. **Topology-locality logical pre-assignment (Range analogue).**  Edge
   streams grouped by source id inherit the crawl-order locality of the
   vertex ids; a Range table over ids supplies a prior for both
   endpoints before any replica exists, fixing the cold-start phase in
   which HDRF places blindly.
3. **Sliding window.**  The multiplicity counters are kept in the same
   fine-grained rotating window (``O(K|V|/X)``) used by vertex SPNL —
   counters behind the stream's source position are dead weight because
   those vertices' remaining edges have already arrived.

Scoring (per partition ``p``, for edge ``(u, v)``):

    score(p) = C_bal(p)                               (HDRF's balance)
             + g(u,p) + g(v,p)                        (HDRF's replicas)
             + mu * (M_p(u)/δ(u) + M_p(v)/δ(v))       (1: multiplicity)
             + nu * ([p = range(u)] + [p = range(v)]) (2: locality)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.digraph import DiGraph
from ..partitioning.hashing import range_boundaries
from ..partitioning.registry import register
from ..partitioning.window import SlidingWindowStore, default_num_shards
from .base import EdgePartitionState
from .hdrf import HDRFPartitioner

__all__ = ["SPNLEdgePartitioner"]


@register("spnl-e", kind="edge", summary="HDRF + SPNL locality")
class SPNLEdgePartitioner(HDRFPartitioner):
    """HDRF enriched with SPNL's multiplicity + locality knowledge.

    Parameters
    ----------
    num_partitions:
        ``K``.
    mu:
        Weight of the normalized multiplicity (Γ) affinity.
    nu:
        Weight of the Range-locality prior.
    num_shards:
        Sliding-window ``X`` for the multiplicity counters
        (``"auto"`` applies the paper's rule; 1 keeps full counters).
    """

    def __init__(self, num_partitions: int, *, mu: float = 1.0,
                 nu: float = 1.0, num_shards: int | str = "auto",
                 **kwargs) -> None:
        super().__init__(num_partitions, **kwargs)
        if mu < 0 or nu < 0:
            raise ValueError("mu and nu must be non-negative")
        self.mu = mu
        self.nu = nu
        self.num_shards = num_shards
        self._store: SlidingWindowStore | None = None
        self._boundaries: np.ndarray | None = None

    @property
    def name(self) -> str:
        return "SPNL-E"

    # ------------------------------------------------------------------
    def _setup(self, graph: DiGraph, state: EdgePartitionState) -> None:
        n = graph.num_vertices
        shards = self.num_shards
        if shards == "auto":
            shards = default_num_shards(n, self.num_partitions)
        self._store = SlidingWindowStore(self.num_partitions, n,
                                         num_shards=int(shards))
        self._boundaries = range_boundaries(n, self.num_partitions)

    def _logical_pid(self, vertex: int) -> int:
        pid = int(np.searchsorted(self._boundaries, vertex,
                                  side="right")) - 1
        return min(max(pid, 0), self.num_partitions - 1)

    def _multiplicity_affinity(self, vertex: int,
                               state: EdgePartitionState) -> np.ndarray:
        """``M_p(vertex) / δ(vertex)`` per partition, in [0, 1]."""
        counts = self._store.expectation_of(vertex).astype(np.float64)
        return counts / max(1, state.partial_degrees[vertex])

    def _choose(self, src: int, dst: int,
                state: EdgePartitionState) -> int:
        # the window tracks the stream's source position
        self._store.advance_to(src)

        d_src = state.partial_degrees[src] + 1
        d_dst = state.partial_degrees[dst] + 1
        theta_src = d_src / (d_src + d_dst)
        theta_dst = 1.0 - theta_src
        g_src = state.replica_mask(src) * (1.0 + (1.0 - theta_src))
        g_dst = state.replica_mask(dst) * (1.0 + (1.0 - theta_dst))

        loads = state.edge_loads
        spread = loads.max() - loads.min()
        c_bal = self.bal_weight * (loads.max() - loads) / (self.epsilon
                                                           + spread)

        mult = (self._multiplicity_affinity(src, state)
                + self._multiplicity_affinity(dst, state))

        locality = np.zeros(self.num_partitions)
        locality[self._logical_pid(src)] += 1.0
        locality[self._logical_pid(dst)] += 1.0

        scores = (c_bal + g_src + g_dst + self.mu * mult
                  + self.nu * locality)
        return self.pick_best(scores, state, self._capacity_value)

    def _after_place(self, src: int, dst: int, pid: int,
                     state: EdgePartitionState) -> None:
        # Γ analogue: the new edge raises p's expectation for both
        # endpoints' *future* edges.
        self._store.record(pid, np.array([src, dst], dtype=np.int64))

    def _extra_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {"mu": self.mu, "nu": self.nu}
        if self._store is not None:
            stats.update(window_size=self._store.window_size,
                         expectation_table_bytes=self._store.nbytes())
        return stats
