"""HDRF, the streaming edge partitioner SPNL-E extends.

High-Degree Replicated First (Petroni et al., CIKM 2015) is PowerGraph's
greedy replica-affinity rule with a partial-degree tilt: prefer
replicating the *higher*-degree endpoint.  It is the baseline the
paper's Sec. VII future-work claim is measured against:
:class:`~repro.edgepart.spnl_edge.SPNLEdgePartitioner` is HDRF plus
SPNL's knowledge terms, and reproduces HDRF with those terms off.
"""

from __future__ import annotations

from ..partitioning.registry import register
from .base import EdgePartitionState, StreamingEdgePartitioner

__all__ = ["HDRFPartitioner"]


@register("hdrf", kind="edge", summary="high-degree replicated first")
class HDRFPartitioner(StreamingEdgePartitioner):
    """High-Degree Replicated First (Petroni et al.).

    Score for partition ``p``:

        C_rep(p) = g(src, p) + g(dst, p)
        g(v, p)  = [p ∈ A(v)] · (1 + (1 - θ_v)),
                   θ_v = δ(v) / (δ(src) + δ(dst))    (partial degrees)
        C_bal(p) = bal_weight · (max_load - load_p)
                              / (ε + max_load - min_load)

    The degree tilt makes the *low*-degree endpoint's replicas more
    attractive, so hubs absorb the replication — the right call on
    power-law graphs.
    """

    def __init__(self, num_partitions: int, *, bal_weight: float = 1.0,
                 epsilon: float = 1.0, **kwargs) -> None:
        super().__init__(num_partitions, **kwargs)
        self.bal_weight = bal_weight
        self.epsilon = epsilon

    @property
    def name(self) -> str:
        return "HDRF"

    def _choose(self, src: int, dst: int,
                state: EdgePartitionState) -> int:
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
        return self.pick_best(g_src + g_dst + c_bal, state,
                              self._capacity_value)
