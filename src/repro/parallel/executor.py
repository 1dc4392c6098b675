"""Parallel streaming partitioning (paper Sec. V-B).

The paper parallelizes the *score computation* of M concurrent adjacency
records over a producer–consumer buffer in shared memory, keeping the data
load sequential.  Concurrent records that are adjacent to each other lose
serial heuristic guidance; the RCT (:mod:`repro.parallel.rct`) detects such
dependencies and *delays* heavily-depended-on vertices until their
dependencies commit, which the paper shows caps the parallel quality
degradation at ~6 % (2 % average) versus up to 47 % for XtraPuLP.

Two executors are provided:

* :class:`SimulatedParallelPartitioner` — a **deterministic** model of
  concurrent placement: records are processed in batches of M; all M are
  scored against the state as of batch start (exactly the stale view real
  workers race on), then committed in order; RCT-delayed records carry
  over to the next batch.  Because it is deterministic and
  machine-independent, this is what the quality experiments (Table V,
  ablations) run on.
* :class:`ThreadedParallelPartitioner` — real ``threading`` workers over a
  bounded queue, scoring lock-free and committing under a lock.  This is
  the wall-clock executor for Fig. 12.  **Caveat** (documented in
  EXPERIMENTS.md): under CPython's GIL on a single core the speedup part
  of Fig. 12 cannot materialize; the executor still faithfully exhibits
  the contention-side effects (rising overhead past the sweet spot) and
  the RCT quality behaviour.

Who scores and who commits: a scored record becomes a placement in
exactly one place, :class:`~repro.partitioning.base.PlacementKernel`'s
``commit``, owned by the single committing thread.  The group loop of
the simulated executor (:meth:`_ParallelBase._place_groups`, which the
process-sharded executor drives too) also *scores* through the kernel;
concurrent scorers — the threaded executor's workers, the pool's worker
processes — call the heuristic's reference ``_score``, which reads live
shared state and touches no kernel scratch.
"""

from __future__ import annotations

import queue
import threading
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

__all__ = ["SimulatedParallelPartitioner", "ThreadedParallelPartitioner"]


class _ParallelBase:
    """Shared plumbing for both executors."""

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
            # NB: the table defines __len__, so an empty (fully drained)
            # table is falsy — test identity, not truthiness.
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
        rct = ReversedCountingTable(self.parallelism,
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


class ThreadedParallelPartitioner(_ParallelBase):
    """Real shared-memory threads over a producer–consumer queue.

    The producer streams records into a bounded queue (the paper's
    buffer); M workers score lock-free (NumPy reads of the shared route
    table may be stale — the very effect the RCT mitigates) and commit
    under one lock.  Delayed records are re-queued with a retry budget.

    Workers are **supervised**: a worker that dies scoring a record hands
    the in-flight record back to the queue (no placement is lost) and is
    replaced by a fresh thread, up to ``max_worker_restarts`` per run
    with exponential backoff between restarts.  Each restart is counted
    in the result stats and emitted as a ``worker_restart`` trace record.
    Once the budget is exhausted — or a worker dies *inside* the commit
    section, where shared state may be half-updated and a retry could
    double-place — the run aborts and the original error surfaces.
    Requeued records carry a ``noted`` flag so their RCT references are
    counted exactly once across retries: a record handed back by a dying
    worker is re-scored but never re-noted, keeping the dependency
    counters and the ``delayed``/``conflicts`` stats identical to a run
    where the worker survived.
    """

    def __init__(self, base: StreamingPartitioner, *, parallelism: int = 4,
                 epsilon: int = 2, use_rct: bool = True,
                 max_delays: int = 3, queue_capacity: int | None = None,
                 max_worker_restarts: int = 2,
                 restart_backoff: float = 0.01) -> None:
        super().__init__(base, parallelism=parallelism, epsilon=epsilon,
                         use_rct=use_rct, max_delays=max_delays)
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
        self.queue_capacity = queue_capacity or 4 * parallelism
        self.max_worker_restarts = max_worker_restarts
        self.restart_backoff = restart_backoff

    @property
    def name(self) -> str:
        return f"{self.base.name}-par{self.parallelism}"

    def partition(self, stream: VertexStream, *,
                  instrumentation=None) -> StreamingResult:
        base = self.base
        state = base.make_state(stream)
        base._setup(stream, state)
        rct = ReversedCountingTable(self.parallelism,
                                    epsilon=self.epsilon) \
            if self.use_rct else None
        # The probe's counters are only touched under the commit lock, so
        # the instrumented threaded run needs no extra synchronisation.
        probe = instrumentation.stream_probe(base, state) \
            if instrumentation is not None else None
        kernel = PlacementKernel(
            base, state, observe=None if probe is None else probe.observe)
        commit_lock = threading.Lock()
        count_lock = threading.Lock()
        # Delayed records are re-queued, so completion cannot be signalled
        # with poison pills (a re-queued record could land behind them).
        # Workers instead drain until the producer is done AND no record
        # is pending (produced but not yet committed).
        buffer: queue.Queue = queue.Queue(maxsize=self.queue_capacity)
        producer_done = threading.Event()
        abort = threading.Event()
        pending = [0]
        delayed_counter = [0]
        # Unrecoverable failures (producer death, commit-section death,
        # restart budget exhaustion): first one wins and is re-raised.
        fatal: list[BaseException] = []
        # Restartable worker deaths, consumed by the supervisor loop.
        failure_q: queue.Queue = queue.Queue()

        def producer() -> None:
            try:
                for record in stream:
                    if rct is not None:
                        rct.register(record.vertex)
                    with count_lock:
                        pending[0] += 1
                    # Bounded-timeout put: an unbounded block would
                    # deadlock the run if every worker has already died
                    # on an error while the buffer is full (nobody will
                    # ever drain it).  On each timeout check for an
                    # abort and stop the stream — the record is
                    # un-counted so the drain invariant stays exact.
                    while True:
                        try:
                            buffer.put((record, 0, False), timeout=0.05)
                            break
                        except queue.Full:
                            if fatal or abort.is_set():
                                with count_lock:
                                    pending[0] -= 1
                                return
            except BaseException as exc:
                fatal.append(exc)
                abort.set()
            finally:
                producer_done.set()

        def worker(index: int) -> None:
            while True:
                try:
                    record, delays, noted = buffer.get(timeout=0.02)
                except queue.Empty:
                    if abort.is_set():
                        return
                    if producer_done.is_set():
                        with count_lock:
                            drained = pending[0] == 0
                        if drained or fatal:
                            return
                    continue
                try:
                    if rct is not None and not noted:
                        rct.note_references(record.neighbors)
                        # Flip *after* the notes land: a retry after a
                        # crash mid-noting re-notes (rare, best-effort)
                        # rather than silently under-counting.
                        noted = True
                    # commit() destroys its scores and wants float64
                    # (what choose() promoted to): hand it a copy.
                    scores = np.array(base._score(record, state),
                                      dtype=np.float64)
                    delay = (rct is not None and delays < self.max_delays
                             and rct.should_delay(record.vertex))
                except BaseException as exc:
                    # Scoring touched nothing the commit path depends on;
                    # hand the record back (so no placement is lost) and
                    # report for a supervised restart.  The ``noted``
                    # flag rides along so the retry counts this record's
                    # RCT references exactly once.  The put blocks with
                    # an abort check: dropping the record would leave
                    # ``pending`` permanently non-zero.
                    while not abort.is_set():
                        try:
                            buffer.put((record, delays, noted),
                                       timeout=0.05)
                            break
                        except queue.Full:
                            continue
                    failure_q.put((index, exc))
                    return
                if delay:
                    try:
                        # Never block here: if every worker tried to
                        # re-queue into a full buffer at once they
                        # would deadlock; placing immediately is the
                        # safe degradation.
                        buffer.put_nowait((record, delays + 1, True))
                        # Guarded: `list[0] += 1` is a read-modify-
                        # write that loses increments when workers
                        # race on it.
                        with count_lock:
                            delayed_counter[0] += 1
                        continue
                    except queue.Full:
                        pass
                try:
                    with commit_lock:
                        if state.route[record.vertex] != UNASSIGNED:
                            raise ValueError(
                                f"vertex {record.vertex} placed twice")
                        kernel.commit(record.vertex, record.neighbors,
                                      scores)
                except BaseException as exc:
                    # Shared state may be half-updated; a retry could
                    # place the vertex twice.  Not survivable.
                    fatal.append(exc)
                    abort.set()
                    return
                if rct is not None:
                    rct.remove(record.vertex)
                    rct.release_references(record.neighbors)
                with count_lock:
                    pending[0] -= 1

        start = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"spnl-worker-{i}")
                   for i in range(self.parallelism)]
        feeder = threading.Thread(target=producer, name="spnl-producer")
        for t in threads:
            t.start()
        feeder.start()

        # Supervisor: replace dead workers until the restart budget runs
        # out, then convert the next death into a fatal abort.  A dying
        # worker enqueues its failure *before* exiting, so once every
        # thread is dead one final non-blocking drain sees all reports.
        restarts_used = 0
        while True:
            try:
                index, exc = failure_q.get(timeout=0.05)
            except queue.Empty:
                if any(t.is_alive() for t in threads):
                    continue
                try:
                    index, exc = failure_q.get_nowait()
                except queue.Empty:
                    break
            if restarts_used >= self.max_worker_restarts:
                fatal.append(exc)
                abort.set()
                continue
            restarts_used += 1
            backoff = self.restart_backoff * 2 ** (restarts_used - 1)
            if backoff:
                time.sleep(backoff)
            replacement = threading.Thread(
                target=worker, args=(index,),
                name=f"spnl-worker-{index}r{restarts_used}")
            threads[index] = replacement
            replacement.start()
            if instrumentation is not None:
                # commit_lock serializes against probe emissions so the
                # trace's seq numbering stays consistent.
                with commit_lock:
                    instrumentation.count("parallel.worker_restarts")
                    instrumentation.emit({
                        "type": "worker_restart",
                        "worker": index,
                        "restarts": restarts_used,
                        "error": repr(exc),
                        "backoff_seconds": backoff,
                    })

        feeder.join()
        elapsed = time.perf_counter() - start
        if fatal:
            raise fatal[0]
        if probe is not None:
            probe.finish(elapsed)
            instrumentation.count("parallel.delayed", delayed_counter[0])
            if rct is not None:
                instrumentation.gauge("parallel.conflicts",
                                      rct.total_conflicts)

        stats = self._stats(rct, delayed_counter[0], state)
        stats["worker_restarts"] = restarts_used
        return StreamingResult(
            assignment=state.to_assignment(),
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=base.num_partitions,
            stats=stats,
        )
