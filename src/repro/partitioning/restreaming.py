"""Re-streaming wrappers (related-work extension, paper Sec. III-B).

Nishimura & Ugander's *restreaming* idea: run the streaming partitioner
several passes, letting pass ``r`` see pass ``r-1``'s placements for every
vertex that has not yet re-arrived.  Quality improves monotonically in
practice at a linear cost in passes.  The paper cites this family as the
standard way to buy quality with extra scans; we provide it both as a
baseline enhancer and to show SPNL *single-pass* already reaches
multi-pass LDG territory (ablation benchmark).

Works with any :class:`~repro.partitioning.base.StreamingPartitioner` —
including SPN/SPNL, whose Γ tables are rebuilt per pass.

The passes run on the reference hooks (``place()``,
``PartitionState.commit`` + ``_after_commit``) on purpose, not on the
:class:`~repro.partitioning.base.PlacementKernel` a single streaming
pass uses: a later pass starts from a route table that is already full,
overwrites placements, and commits kept vertices to a *given* partition
— none of which the kernel's commit (argmax, and images maintained only
from its own first-time commits) expresses.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..graph.stream import VertexStream
from .assignment import UNASSIGNED, PartitionAssignment
from .base import PartitionState, StreamingPartitioner, StreamingResult

__all__ = ["RestreamingPartitioner", "RestreamState"]


class RestreamState(PartitionState):
    """Pass-local state whose route table is pre-seeded with the previous
    pass's assignment.

    Scoring therefore sees the previous placement of every vertex that has
    not yet re-arrived (fully-restreaming semantics), while the capacity
    tallies count only *this* pass's placements, matching ReLDG.
    """

    def __init__(self, previous_route: np.ndarray, num_partitions: int,
                 num_vertices: int, num_edges: int, **kwargs) -> None:
        super().__init__(num_partitions, num_vertices, num_edges, **kwargs)
        self.route = previous_route.astype(np.int32).copy()

    def commit(self, record, pid: int) -> None:
        """Overwrite the carried-over placement without double-place checks."""
        if not 0 <= pid < self.num_partitions:
            raise ValueError(f"invalid partition id {pid}")
        self.route[record.vertex] = pid
        self.vertex_counts[pid] += 1
        self.edge_counts[pid] += record.out_degree
        self.placed_vertices += 1
        self.placed_edges += record.out_degree


class RestreamingPartitioner:
    """Multi-pass wrapper around a streaming partitioner.

    Parameters
    ----------
    base_factory:
        Zero-argument callable producing a fresh base partitioner per run
        (its hooks hold per-pass state, so one instance is reused across
        passes but re-``_setup`` before each).
    num_passes:
        Total passes including the initial cold pass (>= 1).
    restream_fraction:
        Fraction of vertices re-decided in warm passes (1.0 = fully
        restreaming; < 1 = partial restreaming — the rest keep their
        previous placement).  Selection is by id hash, deterministic.
    """

    def __init__(self, base_factory: Callable[[], StreamingPartitioner], *,
                 num_passes: int = 2, restream_fraction: float = 1.0) -> None:
        if num_passes < 1:
            raise ValueError("num_passes must be >= 1")
        if not 0.0 < restream_fraction <= 1.0:
            raise ValueError("restream_fraction must be in (0, 1]")
        self.base_factory = base_factory
        self.num_passes = num_passes
        self.restream_fraction = restream_fraction
        self._base = base_factory()

    @property
    def name(self) -> str:
        return f"Re{self._base.name}x{self.num_passes}"

    @property
    def num_partitions(self) -> int:
        return self._base.num_partitions

    def _should_restream(self, vertex: int) -> bool:
        if self.restream_fraction >= 1.0:
            return True
        threshold = int(self.restream_fraction * 2**32)
        return (vertex * 2654435761) % 2**32 < threshold

    def partition(self, stream: VertexStream) -> StreamingResult:
        """Run ``num_passes`` passes; returns the final pass's assignment.

        ``stats['pass_history']`` records the per-pass elapsed times so the
        quality-vs-passes tradeoff can be plotted.
        """
        base = self._base
        start = time.perf_counter()
        route = np.full(stream.num_vertices, UNASSIGNED, dtype=np.int32)
        pass_times: list[float] = []
        for pass_idx in range(self.num_passes):
            t0 = time.perf_counter()
            state: PartitionState
            if pass_idx == 0:
                state = base.make_state(stream)
            else:
                state = RestreamState(
                    route, base.num_partitions, stream.num_vertices,
                    stream.num_edges, balance=base.balance,
                    slack=base.slack, edge_slack=base.edge_slack)
            base._setup(stream, state)
            for record in stream:
                if pass_idx > 0 and not self._should_restream(record.vertex):
                    # Keep the previous placement but still account for it
                    # so capacities and heuristic state stay truthful.
                    state.commit(record, int(route[record.vertex]))
                    base._after_commit(record, int(route[record.vertex]),
                                       state)
                    continue
                base.place(record, state)
            route = state.route.copy()
            pass_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        return StreamingResult(
            assignment=PartitionAssignment(route, base.num_partitions),
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=base.num_partitions,
            stats={"pass_history": pass_times,
                   "restream_fraction": self.restream_fraction},
        )
