"""LDG — Linear Deterministic Greedy streaming partitioner.

The classical baseline of Stanton & Kliot (KDD 2012) in the exact form the
paper uses as its starting point (Eq. 3):

    pid = argmax_i |V_i^pt ∩ N_out(v)| · w^t(i, v)

where ``w^t(i, v) = 1 - |P_i^t|/C`` penalizes loaded partitions.  Only the
out-neighbor intersection with already-placed vertices is used — the
"limited knowledge from the local view" that SPN/SPNL improve on.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import AdjacencyRecord
from .base import (FastKernel, PartitionState, StreamingPartitioner,
                   make_shifted_counter, make_weight_updater)
from .registry import register

__all__ = ["LDGPartitioner"]


@register("ldg", summary="LDG — linear deterministic greedy (Eq. 3)")
class LDGPartitioner(StreamingPartitioner):
    """Eq. 3 of the paper — the linear deterministic greedy heuristic."""

    @property
    def name(self) -> str:
        return "LDG"

    def score_lanes(self) -> dict[str, np.ndarray]:
        # LDG's only mutable score state is the shared PartitionState.
        return {}

    def _score(self, record: AdjacencyRecord,
               state: PartitionState) -> np.ndarray:
        intersections = state.neighbor_partition_counts(record.neighbors)
        return intersections * state.penalty_weights()

    def _fast_kernel(self, state: PartitionState) -> FastKernel:
        """Fused Eq. 3: one bincount, one multiply, one scalar lane update.

        The penalty-weight vector is maintained incrementally (only the
        committed lane changes per record), so scoring is a single
        K-wide multiply on top of the neighbor tally.
        """
        scratch = state.ensure_scratch()
        scores, weights = scratch.scores, scratch.weights
        counts_fast, shifted = make_shifted_counter(state)
        update_weights = make_weight_updater(state, weights)

        def score_into(v: int, neighbors: np.ndarray) -> np.ndarray:
            np.multiply(counts_fast(neighbors), weights, out=scores)
            return scores

        def after_commit(v: int, neighbors: np.ndarray, pid: int) -> None:
            shifted[v] = pid + 1
            update_weights(pid)

        return score_into, after_commit
