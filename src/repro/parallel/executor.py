"""Parallel streaming partitioning (paper Sec. V-B).

The paper parallelizes the *score computation* of M concurrent adjacency
records over a producer–consumer buffer in shared memory, keeping the data
load sequential.  Concurrent records that are adjacent to each other lose
serial heuristic guidance; the RCT (:mod:`repro.parallel.rct`) detects such
dependencies and *delays* heavily-depended-on vertices until their
dependencies commit, which the paper shows caps the parallel quality
degradation at ~6 % (2 % average) versus up to 47 % for XtraPuLP.

Two executors run that model:

* :class:`SimulatedParallelPartitioner` (here) — a **deterministic**
  model of concurrent placement: records are processed in batches of M;
  all M are scored against the state as of batch start (exactly the
  stale view concurrent workers observe), then committed in order;
  RCT-delayed records carry over to the next batch.  Because it is
  deterministic and machine-independent, this is what the quality
  experiments (Table V, ablations) run on.
* :class:`~repro.parallel.process.ProcessShardedPartitioner` — the same
  group loop with the scoring sharded over worker processes on shared
  memory; byte-identical to the simulated executor at the same M.  This
  is the wall-clock executor for Fig. 12.

Who scores and who commits: a scored record becomes a placement in
exactly one place, :class:`~repro.partitioning.base.PlacementKernel`'s
``commit``, owned by the single committing thread.  The group loop
(:meth:`_ParallelBase._place_groups`, which both executors drive)
scores through the kernel in the simulated executor; the pool's worker
processes call the heuristic's reference ``_score``, which reads the
shared state and touches no kernel scratch.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..graph.stream import VertexStream
from ..partitioning.assignment import UNASSIGNED
from ..partitioning.base import (
    PartitionState,
    PlacementKernel,
    StreamingPartitioner,
    StreamingResult,
)
from .rct import ReversedCountingTable

__all__ = ["SimulatedParallelPartitioner"]


class _ParallelBase:
    """Shared plumbing for the simulated and the process executor."""

    def __init__(self, base: StreamingPartitioner, *, parallelism: int = 4,
                 epsilon: int = 2, use_rct: bool = True,
                 max_delays: int = 3) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.base = base
        self.parallelism = parallelism
        self.epsilon = epsilon
        self.use_rct = use_rct
        self.max_delays = max_delays

    @property
    def num_partitions(self) -> int:
        return self.base.num_partitions

    def _stats(self, rct: ReversedCountingTable | None,
               delayed_total: int, state: PartitionState
               ) -> dict[str, Any]:
        stats = self.base.result_stats(state)
        stats.update(
            parallelism=self.parallelism,
            use_rct=self.use_rct,
            delayed=delayed_total,
            # ``is not None``: a drained table is empty, hence falsy.
            conflicts=rct.total_conflicts if rct is not None else 0,
        )
        return stats

    def _group_event(self, index: int) -> dict[str, Any]:
        """Head of the per-group trace record: its type and index key."""
        raise NotImplementedError

    def _place_groups(self, stream: VertexStream, state: PartitionState,
                      rct, score_group, *, instrumentation=None,
                      ckpt=None, elapsed: float = 0.0
                      ) -> tuple[float, int, int]:
        """Place the rest of ``stream`` in groups of M (Sec. V-B).

        The one group loop.  Per group: the RCT-delayed records carried
        from the previous group first, then fresh ones up to M; every
        vertex registered in ``rct``; the whole group scored against the
        group-start state — the stale view concurrent workers observe —
        by ``score_group(kernel, batch)``, ``batch`` being ``[(record,
        delays)]`` and the scorer noting the fresh (``delays == 0``)
        records' references its own way; then committed in arrival order
        through the kernel, a record the RCT flags being carried over
        (at most ``max_delays`` times) to be re-scored against fresh
        state.  Who scores is the only thing a caller chooses.

        ``ckpt`` (a :class:`~repro.recovery.checkpoint.Checkpointer`)
        adds the snapshot barrier: every ``ckpt.config.every`` consumed
        records the carried records are drained first, so the snapshot
        is the plain sequential ``(state, position)`` pair; writing it
        is not timed.  ``elapsed`` seeds the clock of a resumed pass.
        Returns ``(elapsed, delayed, groups)``.
        """
        probe = instrumentation.stream_probe(self.base, state) \
            if instrumentation is not None else None
        kernel = PlacementKernel(
            self.base, state,
            observe=None if probe is None else probe.observe)
        commit = kernel.commit
        route = state.route
        total = stream.num_vertices
        consumed = stream.tell() if hasattr(stream, "tell") else 0
        next_ckpt = consumed + ckpt.config.every if ckpt is not None \
            else None
        delayed_total = 0
        groups = 0
        carried: list[tuple[Any, int]] = []  # (record, delays)

        def place_group(batch: list[tuple[Any, int]]) -> None:
            nonlocal delayed_total, groups
            if rct is not None:
                for record, _ in batch:
                    rct.register(record.vertex)
            scores = score_group(kernel, batch)
            delayed = 0
            for (record, delays), row in zip(batch, scores):
                vertex = record.vertex
                if (rct is not None and delays < self.max_delays
                        and rct.should_delay(vertex)):
                    carried.append((record, delays + 1))
                    delayed += 1
                    continue
                if route[vertex] != UNASSIGNED:
                    raise ValueError(f"vertex {vertex} placed twice")
                commit(vertex, record.neighbors, row)
                if rct is not None:
                    rct.remove(vertex)
                    rct.release_references(record.neighbors)
            delayed_total += delayed
            groups += 1
            if instrumentation is not None:
                event = self._group_event(groups)
                event.update(batch_size=len(batch), delayed=delayed,
                             placements=int(state.placed_vertices))
                instrumentation.emit(event)

        iterator = iter(stream)
        exhausted = False
        seg_start = time.perf_counter()
        while not exhausted or carried:
            batch, carried = carried, []
            while len(batch) < self.parallelism and not exhausted:
                try:
                    batch.append((next(iterator), 0))
                    consumed += 1
                except StopIteration:
                    exhausted = True
            if not batch:
                break
            place_group(batch)
            if ckpt is not None and next_ckpt <= consumed < total:
                while carried:
                    batch, carried = carried, []
                    place_group(batch)
                elapsed += time.perf_counter() - seg_start
                ckpt.save(state, consumed, elapsed)
                seg_start = time.perf_counter()
                next_ckpt = consumed + ckpt.config.every
        elapsed += time.perf_counter() - seg_start
        if probe is not None:
            probe.finish(elapsed)
            instrumentation.count("parallel.delayed", delayed_total)
            if rct is not None:
                instrumentation.gauge("parallel.conflicts",
                                      rct.total_conflicts)
        return elapsed, delayed_total, groups


class SimulatedParallelPartitioner(_ParallelBase):
    """Deterministic batch model of M-way concurrent placement.

    Per batch: take the next M records, score them all against the
    batch-start state (the stale local view concurrent workers observe),
    then commit sequentially.  With the RCT enabled, records whose
    dependency counter exceeds the live threshold are deferred to the next
    batch, where they are re-scored against *fresh* state — exactly the
    benefit the paper's delay mechanism buys.
    """

    @property
    def name(self) -> str:
        return f"{self.base.name}-par{self.parallelism}(sim)"

    def _group_event(self, index: int) -> dict[str, Any]:
        return {"type": "parallel_batch", "batch": index}

    def partition(self, stream: VertexStream, *,
                  instrumentation=None) -> StreamingResult:
        base = self.base
        state = base.make_state(stream)
        base._setup(stream, state)
        rct = ReversedCountingTable(self.parallelism, stream.num_vertices,
                                    epsilon=self.epsilon) \
            if self.use_rct else None
        block = np.empty((self.parallelism, base.num_partitions))

        def score_group(kernel: PlacementKernel, batch) -> np.ndarray:
            score = kernel.score
            for row, (record, delays) in zip(block, batch):
                # Only *fresh* records note their references: a
                # carried record's notes from its first batch are
                # still outstanding (they drain on commit), so
                # re-noting every batch would inflate neighbor
                # counters without bound and keep the delay
                # threshold artificially hot — an adversarial hub
                # could then hold the whole table above threshold
                # until every record burned its full delay budget.
                if rct is not None and delays == 0:
                    rct.note_references(record.neighbors)
                row[:] = score(record.vertex, record.neighbors)
            return block

        elapsed, delayed, _ = self._place_groups(
            stream, state, rct, score_group,
            instrumentation=instrumentation)
        return StreamingResult(
            assignment=state.to_assignment(),
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=base.num_partitions,
            stats=self._stats(rct, delayed, state),
        )
