"""SPN — Streaming Partitioner with in&out-Neighbor knowledge (Sec. IV-B).

SPN is the paper's first contribution: enrich LDG's local view with
*in-neighbor* knowledge without preprocessing the graph.  Since adjacency
lists only carry out-neighbors, each partition ``P_i`` maintains an
expectation table ``Γ_i`` (how often already-placed members of ``P_i``
point at each vertex), and the placement rule becomes Eq. 5:

    pid = argmax_i ( λ·|V_i^pt ∩ N_out(v)|
                     + (1-λ)·[in-neighbor expectation] ) · w^t(i, v)

``λ = 1`` recovers LDG exactly (verified by a property test); ``λ = 0``
uses expectation knowledge alone; the paper's sweep (Fig. 3) finds an
interior optimum and defaults to ``λ = 0.5``.

**A note on the in-neighbor term.**  The paper's Eq. 5 as typeset sums
expectations over the out-neighborhood, ``Σ_{u∈N_out(v)} Γ_i^t(u)``, but
its worked examples (Figs. 2 and 4) compute the term as ``Γ_i^t(v)`` —
the expectation of the arriving vertex itself, which is exactly
``|V_i^pt ∩ N_in(v)|`` (every placed in-neighbor of ``v`` bumped
``Γ_i(v)`` on arrival).  The two signals are complementary: ``Γ_i(v)``
is exact backward knowledge (it alone rescues one-way chains, where the
neighborhood sum sees nothing), while the Eq. 5 sum is forward-looking
smoothing (rewarding partitions that expect ``v``'s whole
out-neighborhood) and measures 30-40% better on web graphs.  All three
are implemented via ``in_estimator``: ``"combined"`` (default; the sum
of both — strictly dominates either alone in our ablation bench),
``"neighborhood"`` (Eq. 5 verbatim), and ``"self"`` (the worked
examples' simplified form).

The Γ store is the dense ``O(K|V|)`` table or the ``O(K|V|/X)`` sliding
window of Sec. V-A (``num_shards > 1``);
:func:`~repro.partitioning.expectation.make_expectation_store` picks one
from ``num_shards``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import VertexStream
from .base import (FastKernel, PartitionState, StreamingPartitioner,
                   make_shifted_counter, make_weight_updater)
from .expectation import (INT32_SUM_END, ExpectationStore,
                          make_expectation_store)
from .registry import refuse_removed_kwargs, register

__all__ = ["SPNPartitioner"]


@register("spn", summary="SPN — in&out-neighbor knowledge (Eq. 5)")
class SPNPartitioner(StreamingPartitioner):
    """The SPN heuristic (Eq. 5).

    Parameters
    ----------
    num_partitions:
        ``K``.
    lam:
        The paper's λ balancing out-neighbor intersection (weight ``λ``)
        against in-neighbor expectation (weight ``1-λ``); default 0.5.
    num_shards:
        The sliding-window ``X``.  ``1`` keeps the full Γ table;
        ``"auto"`` applies the paper's recommendation
        ``X = min(αK, |V|/(βK))`` at setup time.
    in_estimator:
        ``"combined"`` — in-term is ``Γ_i(v) + Σ_{u∈N_out(v)} Γ_i(u)``
        (default; see the module docstring);
        ``"neighborhood"`` — ``Σ_{u∈N_out(v)} Γ_i(u)`` (Eq. 5 verbatim);
        ``"self"`` — ``Γ_i(v)`` (the worked examples).
    """

    def __init__(self, num_partitions: int, *, lam: float = 0.5,
                 num_shards: int | str = 1,
                 in_estimator: str = "combined", **kwargs) -> None:
        refuse_removed_kwargs(kwargs)
        super().__init__(num_partitions, **kwargs)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lam (λ) must lie in [0, 1]")
        if isinstance(num_shards, str) and num_shards != "auto":
            raise ValueError("num_shards must be an int >= 1 or 'auto'")
        if isinstance(num_shards, int) and num_shards < 1:
            raise ValueError("num_shards must be an int >= 1 or 'auto'")
        if in_estimator not in ("self", "neighborhood", "combined"):
            raise ValueError(
                "in_estimator must be 'self', 'neighborhood', or "
                "'combined'")
        self.lam = lam
        self.num_shards = num_shards
        self.in_estimator = in_estimator
        self._store: ExpectationStore | None = None

    @property
    def name(self) -> str:
        return "SPN"

    # ------------------------------------------------------------------
    def _setup(self, stream: VertexStream, state: PartitionState) -> None:
        self._store = make_expectation_store(
            self.num_partitions, stream, num_shards=self.num_shards)

    # ------------------------------------------------------------------
    @property
    def expectation_store(self) -> ExpectationStore:
        """The live Γ store (available during/after a run)."""
        if self._store is None:
            raise RuntimeError("partitioner has not been set up on a stream")
        return self._store

    def _heuristic_state_dict(self) -> dict[str, Any]:
        return {"store": self.expectation_store.state_dict()}

    def _load_heuristic_state(self, payload: dict[str, Any]) -> None:
        # _setup already built a store of the right shape for the
        # stream; restoring overwrites its counters (and window cursor).
        if payload["store"].get("kind") == "hashed":
            raise ValueError(
                "snapshot holds a hashed Γ table, and gamma_buckets was "
                "removed: it cannot be resumed")
        self.expectation_store.load_state(payload["store"])

    def score_lanes(self) -> dict[str, np.ndarray] | None:
        """SPN's extra mutable score state is the Γ store's counters.

        Stores without shared-lane support (the sliding window, whose
        rotation cursor is inherently sequential) return ``None`` —
        process sharding refuses them instead of silently scoring
        against stale windows.
        """
        store = self.expectation_store
        lanes = getattr(store, "shared_lanes", None)
        if lanes is None:
            return None
        return {f"gamma_{key}": arr for key, arr in lanes().items()}

    def attach_score_lanes(self, lanes: dict[str, np.ndarray]) -> None:
        mine = self.score_lanes()
        if mine is None:
            raise ValueError(
                f"{self.name}'s Γ store "
                f"({type(self.expectation_store).__name__}) has no "
                "shared-lane support; use num_shards=1 for process "
                "sharding")
        if set(lanes) != set(mine):
            raise ValueError(
                f"lane mismatch: expected {sorted(mine)}, "
                f"got {sorted(lanes)}")
        self.expectation_store.attach_shared_lanes(
            {key[len("gamma_"):]: arr for key, arr in lanes.items()
             if key.startswith("gamma_")})

    def _in_term(self, record: AdjacencyRecord) -> np.ndarray:
        """The (1-λ)-weighted in-neighbor knowledge vector."""
        store = self.expectation_store
        if self.in_estimator == "self":
            return store.expectation_of(record.vertex)
        if self.in_estimator == "neighborhood":
            return store.gather(record.neighbors)
        return (store.expectation_of(record.vertex)
                + store.gather(record.neighbors))

    def _score(self, record: AdjacencyRecord,
               state: PartitionState) -> np.ndarray:
        self.expectation_store.advance_to(record.vertex)
        out_term = state.neighbor_partition_counts(record.neighbors)
        in_term = self._in_term(record)
        combined = self.lam * out_term + (1.0 - self.lam) * in_term
        return combined * state.penalty_weights()

    def _after_commit(self, record: AdjacencyRecord, pid: int,
                      state: PartitionState) -> None:
        # Algorithm 1, lines 5-7: traversing N_out(v) bumps Γ_pid.
        self.expectation_store.record(pid, record.neighbors)

    # -- fused scoring pair ---------------------------------------------
    def _make_in_term_into(self) -> Any:
        """``in_term_into(v, neighbors, out) -> out`` over the Γ store.

        Mirrors :meth:`_in_term` estimator-for-estimator with the Γ
        store's ``*_into`` kernels (integer sums — order-insensitive,
        bit-identical at any width that holds them).  The default
        ``combined`` estimator is the store's own method, so the scorer
        calls straight into it.
        """
        store = self.expectation_store
        if self.in_estimator == "combined":
            return store.combined_into
        if self.in_estimator == "neighborhood":
            gather_into = store.gather_into
            return lambda v, neighbors, out: gather_into(neighbors, out)
        expectation_of_into = store.expectation_of_into
        return lambda v, neighbors, out: expectation_of_into(v, out)

    def _lam_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """``(λ, 1−λ)`` as 0-d arrays: a ufunc converts a Python float
        operand on every call, an array never."""
        return (np.array(self.lam, dtype=np.float64),
                np.array(1.0 - self.lam))

    def _fast_kernel(self, state: PartitionState) -> FastKernel:
        """Fused Eq. 5: λ·|V∩N| + (1−λ)·Γ-term, zero temporaries."""
        scratch = state.ensure_scratch()
        store = self.expectation_store
        in_term_into = self._make_in_term_into()
        scores, weights, f1 = scratch.scores, scratch.weights, scratch.f1
        narrow, wide = scratch.i32, scratch.i1
        counts_fast, shifted = make_shifted_counter(state)
        update_weights = make_weight_updater(state, weights)
        lam, one_minus_lam = self._lam_operands()
        advance_to = store.advance_to if store.needs_advance else None
        record_gamma = store.record

        def score_into(v: int, neighbors: np.ndarray) -> np.ndarray:
            if advance_to is not None:
                advance_to(v)
            out_term = counts_fast(neighbors)
            in_term = in_term_into(
                v, neighbors,
                narrow if (len(neighbors) + 1) * state.placed_edges
                < INT32_SUM_END else wide)
            np.multiply(out_term, lam, out=scores)
            np.multiply(in_term, one_minus_lam, out=f1)
            np.add(scores, f1, out=scores)
            np.multiply(scores, weights, out=scores)
            return scores

        def after_commit(v: int, neighbors: np.ndarray, pid: int) -> None:
            record_gamma(pid, neighbors)
            shifted[v] = pid + 1
            update_weights(pid)

        return score_into, after_commit

    def _extra_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {"lambda": self.lam}
        if self._store is not None:
            stats.update(self._store.stats())
        return stats

    def _probe_gauges(self) -> dict[str, Any]:
        """Γ-table footprint for :class:`StreamProbe` snapshots."""
        return {} if self._store is None else self._store.gauges()
