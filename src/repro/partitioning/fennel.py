"""FENNEL — streaming partitioning with an additive load penalty.

Tsourakakis et al. (WSDM 2014), the paper's second streaming competitor.
FENNEL replaces LDG's multiplicative capacity penalty with an additive
cost derived from a relaxed modularity objective:

    pid = argmax_i  |V_i^pt ∩ N(v)|  -  α·γ·|V_i^pt|^(γ-1)

with the canonical parameterization ``γ = 1.5`` and
``α = m · K^(γ-1) / n^γ`` (their Theorem 1 tuning), plus a hard balance
cap ``ν·n/K`` that we express through the shared capacity machinery.
"""

from __future__ import annotations

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import VertexStream
from .base import (FastKernel, PartitionState, StreamingPartitioner,
                   make_shifted_counter)
from .registry import register

__all__ = ["FennelPartitioner"]


@register("fennel", summary="FENNEL — additive load penalty")
class FennelPartitioner(StreamingPartitioner):
    """The FENNEL heuristic with its canonical (γ, α) tuning.

    Parameters
    ----------
    gamma:
        Exponent of the load-penalty term (paper default 1.5).
    alpha:
        Penalty scale; ``None`` selects the canonical
        ``m·K^(γ-1)/n^γ`` at stream setup.
    """

    def __init__(self, num_partitions: int, *, gamma: float = 1.5,
                 alpha: float | None = None, **kwargs) -> None:
        super().__init__(num_partitions, **kwargs)
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1 for a convex penalty")
        self.gamma = gamma
        self.alpha = alpha
        self._alpha_effective = alpha

    @property
    def name(self) -> str:
        return "FENNEL"

    def _setup(self, stream: VertexStream, state: PartitionState) -> None:
        if self.alpha is None:
            n = max(1, stream.num_vertices)
            m = stream.num_edges
            self._alpha_effective = (
                m * state.num_partitions ** (self.gamma - 1.0)
                / n ** self.gamma)
        else:
            self._alpha_effective = self.alpha

    def _heuristic_state_dict(self) -> dict:
        # α is derived from stream totals at setup, but a snapshot pins
        # the exact value so a resume can never diverge on a recompute.
        return {"alpha_effective": float(self._alpha_effective)}

    def _load_heuristic_state(self, payload: dict) -> None:
        self._alpha_effective = float(payload["alpha_effective"])

    def score_lanes(self) -> dict:
        # α is pinned at _setup and static for the rest of the run;
        # every worker's own _setup derives the identical value, so no
        # array needs to be shared beyond the PartitionState.
        return {}

    def _score(self, record: AdjacencyRecord,
               state: PartitionState) -> np.ndarray:
        intersections = state.neighbor_partition_counts(record.neighbors)
        loads = state.vertex_counts.astype(np.float64)
        penalty = (self._alpha_effective * self.gamma
                   * loads ** (self.gamma - 1.0))
        return intersections - penalty

    def _fast_kernel(self, state: PartitionState) -> FastKernel:
        """Fused additive score: counts − (α·γ)·loads^(γ−1), in place.

        The penalty vector is maintained incrementally: a commit changes
        one partition's load, so only that lane's ``pow`` is recomputed
        (scalar, same ufunc) instead of a K-wide ``np.power`` per record.
        """
        scratch = state.ensure_scratch()
        scores, penalty = scratch.scores, scratch.f1
        counts_fast, shifted = make_shifted_counter(state)
        vertex_counts = state.vertex_counts
        exponent = self.gamma - 1.0
        # _score evaluates (α·γ)·pow left-to-right; the scalar product is
        # precomputed here and multiplication is commutative, so the
        # fused result is bit-identical.
        alpha_gamma = self._alpha_effective * self.gamma
        np.power(vertex_counts, exponent, out=penalty)
        np.multiply(penalty, alpha_gamma, out=penalty)

        def score_into(v: int, neighbors: np.ndarray) -> np.ndarray:
            np.subtract(counts_fast(neighbors), penalty, out=scores)
            return scores

        def after_commit(v: int, neighbors: np.ndarray, pid: int) -> None:
            shifted[v] = pid + 1
            penalty[pid] = np.power(vertex_counts[pid], exponent) \
                * alpha_gamma

        return score_into, after_commit
