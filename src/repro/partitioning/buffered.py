"""Buffered hybrid streaming partitioning (related-work extension).

Faraj & Schulz (ACM JEA 2022) buffer a batch of streamed vertices and
partition each batch with offline machinery before committing, trading a
bounded amount of memory and latency for quality.  The paper positions
SPN/SPNL as a drop-in *streaming component* for such hybrid frameworks
(Sec. I); this module implements the framework so the claim is testable:

1. records stream through any :class:`StreamingPartitioner` (the
   pluggable component — LDG or SPNL), which places them immediately;
2. every ``buffer_size`` records, a **model graph** is built over the
   batch: the batch's internal edges, plus one frozen *anchor*
   super-vertex per partition carrying the partition's current global
   vertex weight and weighted edges to batch vertices with placed
   neighbors there (the standard buffered-streaming construction);
3. K-way boundary refinement (:func:`repro.offline.refine.refine`) then
   re-decides the batch under the *global* balance constraint — anchors
   cannot move, so the already-streamed world stays put;
4. accepted moves are written back into the streaming state.

Knowledge structures of the inner partitioner (SPN's Γ tables) are not
rewritten retroactively when refinement moves a vertex; the counters go
slightly stale, bounded by the batch size.  This is the same relaxation
the paper's own parallel technique accepts, and the quality gain from
refinement dominates it (see the hybrid benchmark).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..graph.stream import VertexStream
from ..offline.refine import refine
from ..offline.wgraph import WeightedGraph
from .assignment import UNASSIGNED
from .base import (PartitionState, PlacementKernel, StreamingPartitioner,
                   StreamingResult)

__all__ = ["BufferedHybridPartitioner"]


class BufferedHybridPartitioner:
    """Hybrid buffered-streaming wrapper around a streaming partitioner.

    Parameters
    ----------
    base_factory:
        Zero-argument callable producing the streaming component (e.g.
        ``lambda: SPNLPartitioner(32, num_shards="auto")``).
    buffer_size:
        Records per batch (the framework's memory/quality dial).
    refine_passes:
        Boundary-refinement passes per batch.
    """

    def __init__(self, base_factory: Callable[[], StreamingPartitioner],
                 *, buffer_size: int = 2048, refine_passes: int = 4
                 ) -> None:
        if buffer_size < 2:
            raise ValueError("buffer_size must be >= 2")
        self.base_factory = base_factory
        self.buffer_size = buffer_size
        self.refine_passes = refine_passes
        self._base = base_factory()
        self._moves = 0

    @property
    def name(self) -> str:
        return f"Buffered({self._base.name},B={self.buffer_size})"

    @property
    def num_partitions(self) -> int:
        return self._base.num_partitions

    # ------------------------------------------------------------------
    def _build_model_graph(self, batch, state: PartitionState
                           ) -> tuple[WeightedGraph, np.ndarray,
                                      np.ndarray]:
        """Batch model graph: batch vertices + K frozen anchors.

        Returns ``(graph, labels, frozen_mask)`` with batch vertices at
        indices ``0..B-1`` and anchor ``p`` at index ``B + p``.
        """
        k = self.num_partitions
        batch_ids = np.array([r.vertex for r in batch], dtype=np.int64)
        local_of = {int(v): i for i, v in enumerate(batch_ids)}
        b = len(batch)
        n_model = b + k

        srcs: list[int] = []
        dsts: list[int] = []
        for i, record in enumerate(batch):
            for u in record.neighbors.tolist():
                j = local_of.get(u)
                if j is not None:
                    if j != i:
                        srcs.append(i)
                        dsts.append(j)
                    continue
                pid = state.route[u]
                if pid != UNASSIGNED:
                    srcs.append(i)
                    dsts.append(b + int(pid))

        # symmetrize + aggregate into weights
        all_src = np.array(srcs + dsts, dtype=np.int64)
        all_dst = np.array(dsts + srcs, dtype=np.int64)
        if len(all_src):
            key = all_src * n_model + all_dst
            order = np.argsort(key, kind="stable")
            key = key[order]
            boundary = np.empty(len(key), dtype=bool)
            boundary[0] = True
            np.not_equal(key[1:], key[:-1], out=boundary[1:])
            group = np.cumsum(boundary) - 1
            weights = np.bincount(group).astype(np.int64)
            agg_src = all_src[order][boundary]
            agg_dst = all_dst[order][boundary]
        else:
            weights = np.empty(0, dtype=np.int64)
            agg_src = np.empty(0, dtype=np.int64)
            agg_dst = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n_model + 1, dtype=np.int64)
        if len(agg_src):
            np.cumsum(np.bincount(agg_src, minlength=n_model),
                      out=indptr[1:])

        labels = np.empty(n_model, dtype=np.int32)
        labels[:b] = state.route[batch_ids]
        labels[b:] = np.arange(k, dtype=np.int32)

        vertex_weights = np.ones(n_model, dtype=np.int64)
        # anchor weight = the partition's global population *excluding*
        # the batch (batch members carry their own unit weights)
        batch_counts = np.bincount(state.route[batch_ids], minlength=k)
        vertex_weights[b:] = np.maximum(
            0, state.vertex_counts - batch_counts)

        frozen = np.zeros(n_model, dtype=bool)
        frozen[b:] = True
        model = WeightedGraph(indptr, agg_dst, weights, vertex_weights,
                              name="batch-model")
        return model, labels, frozen

    def _refine_batch(self, batch, state: PartitionState) -> None:
        if len(batch) < 2:
            return
        model, labels, frozen = self._build_model_graph(batch, state)
        refined = refine(model, labels, self.num_partitions,
                         slack=self._base.slack,
                         max_passes=self.refine_passes, frozen=frozen)
        # write accepted moves back into the streaming state
        for i, record in enumerate(batch):
            new_pid = int(refined[i])
            old_pid = int(state.route[record.vertex])
            if new_pid != old_pid:
                state.route[record.vertex] = new_pid
                state.vertex_counts[old_pid] -= 1
                state.vertex_counts[new_pid] += 1
                state.edge_counts[old_pid] -= record.out_degree
                state.edge_counts[new_pid] += record.out_degree
                self._moves += 1

    # ------------------------------------------------------------------
    def partition(self, stream: VertexStream) -> StreamingResult:
        """Stream + per-batch refinement; one pass over the data."""
        base = self._base
        self._moves = 0
        state = base.make_state(stream)
        base._setup(stream, state)
        # The reference kernel: it keeps no image of the route table, so
        # rebuilding it after a refinement (which moves placed vertices,
        # making loads non-monotone) costs O(K).
        kernel = PlacementKernel(base, state, reference=True)
        start = time.perf_counter()
        batch = []
        for record in stream:
            kernel.step(record.vertex, record.neighbors)
            batch.append(record)
            if len(batch) >= self.buffer_size:
                self._refine_batch(batch, state)
                batch = []
                kernel = PlacementKernel(base, state, reference=True)
        if batch:
            self._refine_batch(batch, state)
        elapsed = time.perf_counter() - start
        stats = dict(base._extra_stats())
        stats.update(buffer_size=self.buffer_size,
                     refinement_moves=self._moves)
        return StreamingResult(
            assignment=state.to_assignment(),
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=base.num_partitions,
            stats=stats,
        )
