"""Process-sharded parallel streaming partitioning (true multicore).

:class:`ProcessShardedPartitioner` is the multicore realization of the
paper's Sec. V-B design, out of the GIL's reach: N worker
*processes* score adjacency records against a
``multiprocessing.shared_memory``-backed route table and vertex-major
(V, K) Γ lanes, while a sequential reader in the parent feeds record
groups through a bounded shared ring and applies every commit itself.

Execution model (one *group* = the paper's M concurrent records):

1. the parent assembles the next group — RCT-delayed records carried
   from the previous group first, then fresh records from the stream —
   and writes it into the next ring slot (vertices, CSR-packed
   neighbors, freshness flags);
2. all group vertices are registered in the shared RCT, then contiguous
   sub-ranges are dispatched to the workers, which score their records
   against the shared (group-start) state, note RCT conflicts into
   private per-worker lanes, and write length-K score vectors into the
   slot's score block;
3. after the barrier the parent folds the conflict lanes into its RCT
   (:class:`~repro.parallel.rct.ReversedCountingTable` over the
   segment's counter and in-flight lanes) and commits.
   Steps 1 and 3 are not a copy of
   :class:`~repro.parallel.executor.SimulatedParallelPartitioner`'s
   loop, they *are* it (``_ParallelBase._place_groups``, parameterised
   only by who scores the group): commits go through the parent's
   :class:`~repro.partitioning.base.PlacementKernel` group-by-group in
   the group's arrival order (id-sorted for the default id-ordered
   streams), deferring heavily-depended vertices up to ``max_delays``
   times.

Because scoring is pure (workers write only their score block and
conflict lane) and all state mutation happens in the parent between
barriers, the result is **byte-identical** to the simulated executor at
the same ``parallelism`` — and byte-identical to the sequential record
path at ``parallelism=1`` — while the scoring work spreads over real
cores.  The registry-wide parity suite pins both properties.

Workers are supervised: a worker that dies mid-group (even SIGKILL)
or raises while scoring is respawned with bounded restarts and its
sub-range re-dispatched — safe because
workers are idempotent (re-scoring rewrites the same deterministic
bytes) and no committed placement ever lives in a worker.  Checkpoints
compose with the recovery layer: at snapshot barriers the parent drains
all in-flight (carried) records, so a snapshot is exactly the
sequential triple (state, heuristic, position) and resuming is
byte-identical to the checkpointed run that never crashed.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing as mp
import time
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path
from typing import Any

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import VertexStream, as_array_stream
from ..partitioning.base import StreamingPartitioner, StreamingResult
from ..recovery.checkpoint import (CheckpointConfig, Checkpointer,
                                   _as_config, _restore, _snapshot_file)
from ..recovery.snapshot import read_snapshot
from .executor import _ParallelBase
from .rct import ReversedCountingTable
from .shared import SharedArrayBlock

__all__ = ["ProcessShardedPartitioner", "ShardedScorePool",
           "WorkerCrashedError"]


class WorkerCrashedError(RuntimeError):
    """A worker process died and the restart budget is exhausted."""


class _StreamMeta:
    """Picklable stream façade carrying only what ``_setup`` reads.

    Workers rebuild their partitioner clone against this instead of the
    real stream (which may hold open files, mmaps, or whole graphs):
    every ``_setup`` in the tree only consumes the totals and the
    id-order flag.
    """

    def __init__(self, stream: VertexStream) -> None:
        self.num_vertices = stream.num_vertices
        self.num_edges = stream.num_edges
        self.is_id_ordered = bool(getattr(stream, "is_id_ordered", False))
        arrays = as_array_stream(stream)
        if arrays is not None:
            self.max_degree: int | None = arrays.max_degree
        else:
            self.max_degree = getattr(stream, "max_degree", None)


def _worker_main(worker_id: int, template: StreamingPartitioner,
                 meta: _StreamMeta, spec, shm_name: str, use_rct: bool,
                 conn) -> None:
    """Score sub-ranges of ring slots until told to stop.

    The worker is *pure*: it reads the shared route/tallies/Γ lanes and
    the ring's record data, and writes only (a) its own RCT conflict
    lane and (b) the score block of the dispatched range.  Dying at any
    instruction therefore loses nothing the parent cannot redo.

    Results go back over the worker's **own** duplex pipe, never a
    shared queue: a worker SIGKILLed mid-``send`` leaves a torn pickle
    frame in its pipe, and on a shared channel that frame would wedge
    every later message from every surviving worker behind it.  With
    per-worker pipes the torn frame dies with the pipe — the parent
    sees EOF, respawns, and the replacement gets a fresh channel.
    """
    block = SharedArrayBlock.attach(shm_name, spec)
    views = block.views
    try:
        state = template.make_state(meta)
        template._setup(meta, state)
        state.route = views["route"]
        state.vertex_counts = views["vertex_counts"]
        state.edge_counts = views["edge_counts"]
        lane_keys = template.score_lanes() or {}
        template.attach_score_lanes(
            {key: views["lane_" + key] for key in lane_keys})
        in_flight = views["rct_inflight"]
        lane = views["rct_lanes"][worker_id] if use_rct else None
        ring_vertices = views["ring_vertices"]
        ring_indptr = views["ring_indptr"]
        ring_neighbors = views["ring_neighbors"]
        ring_fresh = views["ring_fresh"]
        ring_scores = views["ring_scores"]
        score = template._score
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, slot, lo, hi, epoch = msg
            vertices = ring_vertices[slot]
            indptr = ring_indptr[slot]
            neighbors_flat = ring_neighbors[slot]
            fresh = ring_fresh[slot]
            scores_out = ring_scores[slot]
            try:
                for i in range(lo, hi):
                    neighbors = neighbors_flat[indptr[i]:indptr[i + 1]]
                    if use_rct and fresh[i] and neighbors.size:
                        # The paper piggybacks conflict detection on the
                        # neighbor traversal scoring already performs:
                        # any in-flight neighbor gets its dependency
                        # counter bumped — here into this worker's
                        # private lane, folded by the parent at the
                        # barrier (deterministic commutative sum).
                        hits = neighbors[in_flight[neighbors] != 0]
                        if hits.size:
                            np.add.at(lane, hits, 1)
                    record = AdjacencyRecord(int(vertices[i]), neighbors)
                    scores_out[i, :] = score(record, state)
            except Exception as exc:
                conn.send(("error", worker_id, slot, epoch, repr(exc)))
                return
            conn.send(("done", worker_id, slot, epoch))
    finally:
        block.close()


def fold_lanes(rct: ReversedCountingTable, lanes: np.ndarray,
               vertices: np.ndarray) -> int:
    """Fold the workers' conflict ``lanes`` into ``rct``, then zero them.

    Called once per group barrier, after all workers went idle, with the
    group's ``vertices``: workers note only in-flight vertices, all of
    them in the group.  The fold is a commutative sum, so the counters
    do not depend on worker scheduling, and it reaches the table through
    :meth:`~repro.parallel.rct.ReversedCountingTable.note_hits`, the
    step the simulated executor's notes take.  Returns how many
    conflicts the group noted.
    """
    noted = lanes[:, vertices].sum(axis=0)
    if not noted.any():
        return 0
    lanes[:, vertices] = 0
    return rct.note_hits(np.repeat(vertices, noted).tolist())


def clear_lane(lanes: np.ndarray, worker: int,
               vertices: np.ndarray) -> None:
    """Discard ``worker``'s partial notes on the group's ``vertices``.

    A respawned worker redoes its whole sub-range, re-noting every
    reference; zeroing first keeps :func:`fold_lanes` exactly-once.
    """
    lanes[worker, vertices] = 0


def _pool_spec(meta: _StreamMeta, lanes, *, num_partitions: int,
               group_max: int, num_workers: int, ring_slots: int):
    """The shared-segment layout for a scoring pool of this shape."""
    v = meta.num_vertices
    k = num_partitions
    m = group_max
    s = ring_slots
    w = num_workers
    if meta.max_degree is not None:
        ncap = min(meta.num_edges, m * meta.max_degree)
    else:
        ncap = meta.num_edges
    ncap = max(ncap, 1)
    spec = [
        ("route", (v,), np.int32),
        ("vertex_counts", (k,), np.int64),
        ("edge_counts", (k,), np.int64),
        ("rct_counts", (v,), np.int32),
        ("rct_inflight", (v,), np.uint8),
        ("rct_lanes", (w, v), np.int32),
        ("ring_vertices", (s, m), np.int64),
        ("ring_indptr", (s, m + 1), np.int64),
        ("ring_neighbors", (s, ncap), np.int64),
        ("ring_fresh", (s, m), np.uint8),
        ("ring_scores", (s, m, k), np.float64),
    ]
    for key in sorted(lanes):
        arr = lanes[key]
        spec.append(("lane_" + key, arr.shape, arr.dtype))
    return spec


class ShardedScorePool:
    """N scoring worker processes over one shared segment.

    The supervision machinery of :class:`ProcessShardedPartitioner` —
    spawn, respawn-with-budget, epoch-tagged redispatch, EOF-as-death
    barrier waits.  The executor owns the state and every commit; the
    pool owns the segment, the workers, and the per-group dispatch
    barrier.

    One call to :meth:`score_group` scores up to ``group_max`` records
    against the shared group-start state and returns the ``(n, K)``
    score block.  Scoring is pure (workers write only their conflict
    lane and score range), so a SIGKILLed worker is respawned and its
    sub-range re-scored with byte-identical results, invisible to the
    caller until the restart budget runs out
    (:class:`WorkerCrashedError`).

    A ``barrier_hook`` attribute (``callable(group_index, processes)``
    or ``None``) runs after each dispatch, before the barrier wait —
    the chaos suites use it to SIGKILL workers mid-group.
    """

    def __init__(self, template: StreamingPartitioner, meta: _StreamMeta,
                 lanes, *, group_max: int, num_workers: int,
                 use_rct: bool = True, epsilon: int = 2,
                 ring_slots: int = 2, max_worker_restarts: int = 2,
                 restart_backoff: float = 0.05,
                 worker_timeout: float = 120.0,
                 mp_context: str | None = None,
                 instrumentation=None) -> None:
        if group_max < 1:
            raise ValueError("group_max must be >= 1")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        self.template = template
        self.meta = meta
        self.lane_keys = sorted(lanes)
        self.group_max = group_max
        self.num_workers = num_workers
        self.use_rct = use_rct
        self.ring_slots = ring_slots
        self.max_worker_restarts = max_worker_restarts
        self.restart_backoff = restart_backoff
        self.worker_timeout = worker_timeout
        self.instrumentation = instrumentation
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(mp_context)
        self.spec = _pool_spec(
            meta, lanes, num_partitions=template.num_partitions,
            group_max=group_max, num_workers=num_workers,
            ring_slots=ring_slots)
        self.block = SharedArrayBlock.create(self.spec)
        try:
            views = self.block.views
            self.rct = ReversedCountingTable(
                group_max, meta.num_vertices, epsilon=epsilon,
                counts=views["rct_counts"],
                in_flight=views["rct_inflight"]) if use_rct else None
        except BaseException:
            self.block.close()
            raise
        self._procs: list[Any] = [None] * num_workers
        self._conns: list[Any] = [None] * num_workers
        self._epoch_seq = itertools.count(1)
        self.restarts = 0
        self._last_error: list[str] = []
        self._group_index = 0
        self._group = (0, 0)  # ring slot and size of the group in flight
        self.barrier_hook = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def views(self) -> dict[str, np.ndarray]:
        return self.block.views

    def bind_state(self, state, base: StreamingPartitioner, lanes) -> None:
        """Move the canonical state into the segment and rebind views."""
        views = self.views
        np.copyto(views["route"], state.route)
        state.route = views["route"]
        np.copyto(views["vertex_counts"], state.vertex_counts)
        state.vertex_counts = views["vertex_counts"]
        np.copyto(views["edge_counts"], state.edge_counts)
        state.edge_counts = views["edge_counts"]
        for key, arr in lanes.items():
            np.copyto(views["lane_" + key], arr)
        base.attach_score_lanes(
            {key: views["lane_" + key] for key in lanes})

    def detach_state(self, state, base: StreamingPartitioner) -> None:
        """Rebind state and lanes to private copies outliving the segment."""
        views = self.views
        state.route = np.array(views["route"])
        state.vertex_counts = np.array(views["vertex_counts"])
        state.edge_counts = np.array(views["edge_counts"])
        base.attach_score_lanes(
            {key: np.array(views["lane_" + key])
             for key in self.lane_keys})
        self.rct = None  # drained; its lanes are views of the segment

    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.template, self.meta, self.spec,
                  self.block.name, self.rct is not None, child_conn),
            name=f"shard-worker-{worker_id}", daemon=True)
        proc.start()
        child_conn.close()
        if self._conns[worker_id] is not None:
            self._conns[worker_id].close()
        self._procs[worker_id], self._conns[worker_id] = proc, parent_conn

    def _respawn(self, worker_id: int, reason: str) -> None:
        # Reap the dead worker first: it is about to leave ``_procs``
        # (replaced, or the run fails), and ``close`` joins only the
        # workers still listed there.
        dead = self._procs[worker_id]
        dead.join(timeout=2.0)
        if dead.is_alive():
            dead.kill()
            dead.join(timeout=2.0)
        if self.restarts >= self.max_worker_restarts:
            raise WorkerCrashedError(
                f"worker {worker_id} died ({reason}) and the "
                f"restart budget ({self.max_worker_restarts}) is "
                "exhausted"
                + (f"; last worker error: {self._last_error[-1]}"
                   if self._last_error else ""))
        self.restarts += 1
        if self.rct is not None:
            clear_lane(self.views["rct_lanes"], worker_id,
                       self._group_vertices())
        backoff = self.restart_backoff * 2 ** (self.restarts - 1)
        if backoff:
            time.sleep(backoff)
        self._spawn(worker_id)
        if self.instrumentation is not None:
            self.instrumentation.count("parallel.worker_restarts")
            self.instrumentation.emit({
                "type": "worker_restart",
                "worker": worker_id,
                "restarts": self.restarts,
                "error": reason,
                "backoff_seconds": backoff,
            })

    def _redispatch(self, worker_id: int, slot: int, outstanding,
                    reason: str) -> None:
        lo, hi, _ = outstanding[worker_id]
        self._respawn(worker_id, reason)
        eid = next(self._epoch_seq)
        self._conns[worker_id].send(("score", slot, lo, hi, eid))
        outstanding[worker_id] = (lo, hi, eid)

    def _group_vertices(self) -> np.ndarray:
        slot, count = self._group
        return self.views["ring_vertices"][slot, :count]

    def _dispatch_and_wait(self, slot: int, count: int) -> None:
        procs, conns = self._procs, self._conns
        active = min(self.num_workers, count)
        outstanding: dict[int, tuple[int, int, int]] = {}
        for worker_id in range(active):
            lo = worker_id * count // active
            hi = (worker_id + 1) * count // active
            if lo >= hi:
                continue
            if procs[worker_id] is None:
                self._spawn(worker_id)
            elif not procs[worker_id].is_alive():
                self._respawn(worker_id, "died between groups")
            eid = next(self._epoch_seq)
            conns[worker_id].send(("score", slot, lo, hi, eid))
            outstanding[worker_id] = (lo, hi, eid)
        if self.barrier_hook is not None:
            self.barrier_hook(self._group_index, procs)
        deadline = time.monotonic() + self.worker_timeout
        while outstanding:
            by_conn = {conns[w]: w for w in outstanding}
            # A dead worker's pipe hits EOF, so ``wait`` wakes for
            # deaths as well as results — no liveness polling.
            ready = _wait_connections(list(by_conn), timeout=0.05)
            if not ready:
                if time.monotonic() > deadline:
                    raise WorkerCrashedError(
                        f"workers {sorted(outstanding)} made no "
                        f"progress for {self.worker_timeout}s")
                continue
            for conn in ready:
                worker_id = by_conn[conn]
                if worker_id not in outstanding \
                        or conns[worker_id] is not conn:
                    continue  # replaced earlier in this sweep
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Killed mid-group — possibly mid-send, leaving
                    # a torn frame; the pipe dies with the worker.
                    self._redispatch(worker_id, slot, outstanding,
                                     "killed mid-group")
                    deadline = time.monotonic() + self.worker_timeout
                    continue
                expected = outstanding[worker_id]
                if msg[0] == "done":
                    _, _, mslot, meid = msg
                    if expected[2] == meid and mslot == slot:
                        outstanding.pop(worker_id)
                        deadline = time.monotonic() + self.worker_timeout
                else:  # ("error", worker, slot, epoch, repr)
                    _, _, _, meid, err = msg
                    if expected[2] == meid:
                        self._last_error.append(err)
                        self._redispatch(worker_id, slot, outstanding,
                                         f"scoring error: {err}")
                        deadline = time.monotonic() + self.worker_timeout

    # ------------------------------------------------------------------
    def score_group(self, batch, fresh=None) -> np.ndarray:
        """Score ``batch`` (``AdjacencyRecord`` seq) against shared state.

        Writes the group into the next ring slot, shards it over the
        workers, blocks at the barrier and, with an RCT, folds the
        workers' conflict lanes into it.  ``fresh`` optionally flags
        which records should note RCT conflicts (all of them when
        omitted).
        Returns the slot's ``(len(batch), K)`` score view — valid until
        the slot is reused, ``ring_slots`` groups later.
        """
        count = len(batch)
        if count == 0:
            return self.views["ring_scores"][0][:0]
        if count > self.group_max:
            raise ValueError(
                f"group of {count} exceeds group_max={self.group_max}")
        views = self.views
        slot = self._group_index % self.ring_slots
        ring_vertices = views["ring_vertices"]
        ring_neighbors = views["ring_neighbors"]
        ring_fresh = views["ring_fresh"]
        indptr = views["ring_indptr"][slot]
        offset = 0
        indptr[0] = 0
        for i, record in enumerate(batch):
            ring_vertices[slot, i] = record.vertex
            degree = len(record.neighbors)
            ring_neighbors[slot, offset:offset + degree] = record.neighbors
            offset += degree
            indptr[i + 1] = offset
            ring_fresh[slot, i] = 1 if fresh is None else \
                (1 if fresh[i] else 0)
        self._group = (slot, count)
        self._dispatch_and_wait(slot, count)
        if self.rct is not None:
            fold_lanes(self.rct, views["rct_lanes"], self._group_vertices())
        self._group_index += 1
        return views["ring_scores"][slot][:count]

    # ------------------------------------------------------------------
    def _stop_workers(self) -> None:
        for conn, proc in zip(self._conns, self._procs):
            if conn is not None:
                try:
                    if proc is not None and proc.is_alive():
                        conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            if conn is not None:
                conn.close()

    def close(self) -> None:
        """Stop workers and release the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop_workers()
        self.block.close()

    def __enter__(self) -> "ShardedScorePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessShardedPartitioner(_ParallelBase):
    """M-way concurrent placement sharded over N worker processes.

    Parameters
    ----------
    base:
        The wrapped streaming heuristic.  It must declare its mutable
        score state via
        :meth:`~repro.partitioning.base.StreamingPartitioner
        .score_lanes` (ldg/fennel/spn/spnl with the dense Γ store do;
        the sliding-window store is refused — its rotation cursor is
        inherently sequential).
    parallelism:
        The paper's M — records scored concurrently per group.  This is
        the *semantic* knob: results are byte-identical to
        :class:`~repro.parallel.executor.SimulatedParallelPartitioner`
        at the same value, regardless of ``num_workers``.
    num_workers:
        Worker processes the group is sharded over (the *throughput*
        knob).  Default: ``min(parallelism, usable CPUs)``.
    epsilon, use_rct, max_delays:
        As in the simulated executor (RCT capacity ``ε·M``, delay
        budget).
    ring_slots:
        Slots in the bounded shared ring (≥ 1).  Slots are cycled
        round-robin; each holds one group's records and score block.
    max_worker_restarts, restart_backoff:
        Supervision budget for dead workers (SIGKILL, or an exception
        raised while scoring) with exponential backoff between
        restarts; once it is spent the run raises
        :class:`WorkerCrashedError` naming the last worker error.
    worker_timeout:
        Seconds a live worker may stay silent on a dispatched range
        before the run aborts (guards against hung workers; deaths are
        detected much sooner via liveness checks).
    mp_context:
        ``multiprocessing`` start method (default: ``fork`` when
        available, else ``spawn``).

    A ``barrier_hook`` attribute (``callable(group_index, processes)``
    or ``None``) runs after each dispatch, before the barrier wait —
    the chaos suite uses it to SIGKILL workers mid-group.
    """

    def __init__(self, base: StreamingPartitioner, *, parallelism: int = 4,
                 num_workers: int | None = None, epsilon: int = 2,
                 use_rct: bool = True, max_delays: int = 3,
                 ring_slots: int = 2, max_worker_restarts: int = 2,
                 restart_backoff: float = 0.05,
                 worker_timeout: float = 120.0,
                 mp_context: str | None = None) -> None:
        super().__init__(base, parallelism=parallelism, epsilon=epsilon,
                         use_rct=use_rct, max_delays=max_delays)
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
        if worker_timeout <= 0:
            raise ValueError("worker_timeout must be > 0")
        if num_workers is None:
            import os
            cpus = os.cpu_count() or 1
            num_workers = max(1, min(parallelism, cpus))
        self.num_workers = num_workers
        self.ring_slots = ring_slots
        self.max_worker_restarts = max_worker_restarts
        self.restart_backoff = restart_backoff
        self.worker_timeout = worker_timeout
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        self.barrier_hook = None

    @property
    def name(self) -> str:
        return f"{self.base.name}-par{self.parallelism}" \
            f"(proc{self.num_workers})"

    # ------------------------------------------------------------------
    def partition(self, stream: VertexStream, *,
                  instrumentation=None) -> StreamingResult:
        return self._run(stream, instrumentation=instrumentation)

    def partition_with_checkpoints(
            self, stream: VertexStream,
            config: CheckpointConfig | str | Path, *,
            every: int | None = None, keep: int | None = None,
            instrumentation=None) -> StreamingResult:
        """One sharded pass with a snapshot every ``config.every`` records.

        Snapshots are taken at group boundaries: the parent drains every
        carried (in-flight) record first, so the snapshot is the plain
        sequential triple — interchangeable with the recovery layer's
        (a crashed sharded run can even be resumed sequentially).
        Draining may commit a delayed record earlier than the
        uninterrupted run would have, so a checkpointed run is
        byte-identical to its *resumed* runs, not necessarily to an
        uncheckpointed one.
        """
        config = _as_config(config, every, keep)
        return self._run(stream, instrumentation=instrumentation,
                         ckpt_config=config)

    def resume_partition(
            self, stream: VertexStream, snapshot: str | Path, *,
            config: CheckpointConfig | str | Path | None = None,
            every: int | None = None, keep: int | None = None,
            instrumentation=None) -> StreamingResult:
        """Finish a crashed sharded pass from ``snapshot``.

        Byte-identical to the checkpointed run that never crashed: the
        snapshot was taken at a drained group boundary, so resuming
        restarts with an empty RCT and the same group sequence.
        """
        snapshot = _snapshot_file(snapshot)
        payload = read_snapshot(snapshot)
        config = _as_config(
            snapshot.parent if config is None else config, every, keep)
        return self._run(stream, instrumentation=instrumentation,
                         ckpt_config=config, resume_payload=payload,
                         resumed_from=str(snapshot))

    # ------------------------------------------------------------------
    def _run(self, stream: VertexStream, *, instrumentation=None,
             ckpt_config: CheckpointConfig | None = None,
             resume_payload: dict[str, Any] | None = None,
             resumed_from: str | None = None) -> StreamingResult:
        base = self.base
        # Pristine clone for the workers, taken before _setup allocates
        # the big per-run structures (each worker runs its own _setup
        # against the stream façade and attaches the shared lanes).
        template = copy.deepcopy(base)
        base_elapsed = 0.0
        if resume_payload is not None:
            state = _restore(base, stream, resume_payload, resumed_from,
                             instrumentation)
            base_elapsed = float(
                resume_payload.get("elapsed_seconds", 0.0))
        else:
            state = base.make_state(stream)
            base._setup(stream, state)
        lanes = base.score_lanes()
        if lanes is None:
            raise ValueError(
                f"{base.name} does not declare shared score lanes and "
                "cannot run process-sharded (sliding-window Γ stores "
                "are sequential by design; use num_shards=1)")

        meta = _StreamMeta(stream)
        pool = ShardedScorePool(
            template, meta, lanes,
            group_max=self.parallelism, num_workers=self.num_workers,
            use_rct=self.use_rct, epsilon=self.epsilon,
            ring_slots=self.ring_slots,
            max_worker_restarts=self.max_worker_restarts,
            restart_backoff=self.restart_backoff,
            worker_timeout=self.worker_timeout,
            mp_context=self.mp_context,
            instrumentation=instrumentation)
        pool.barrier_hook = self.barrier_hook
        try:
            return self._drive(
                stream, state, lanes, pool,
                instrumentation=instrumentation, ckpt_config=ckpt_config,
                base_elapsed=base_elapsed, resumed_from=resumed_from)
        finally:
            pool.close()

    # ------------------------------------------------------------------
    def _group_event(self, index: int) -> dict[str, Any]:
        return {"type": "parallel_group", "group": index,
                "workers": self.num_workers}

    def _drive(self, stream, state, lanes, pool: ShardedScorePool, *,
               instrumentation, ckpt_config, base_elapsed,
               resumed_from) -> StreamingResult:
        base = self.base
        # Bind first: the group loop's kernel captures the state's
        # arrays, which from here on are views of the shared segment.
        pool.bind_state(state, base, lanes)
        rct = pool.rct
        ckpt = Checkpointer(base, ckpt_config,
                            instrumentation=instrumentation) \
            if ckpt_config is not None else None

        def score_group(kernel, batch) -> np.ndarray:
            # The workers score (reference ``_score`` against the shared
            # group-start state) and note the fresh records' conflicts
            # into their lanes; the pool folds those at the barrier.
            return pool.score_group(
                [record for record, _ in batch],
                fresh=[delays == 0 for _, delays in batch])

        elapsed, delayed, groups = self._place_groups(
            stream, state, rct, score_group,
            instrumentation=instrumentation, ckpt=ckpt,
            elapsed=base_elapsed)

        assignment = state.to_assignment()
        stats = self._stats(rct, delayed, state)
        stats.update(
            num_workers=self.num_workers,
            worker_restarts=pool.restarts,
            groups=groups,
        )
        if ckpt is not None:
            stats["checkpoints_written"] = ckpt.snapshots_written
        if resumed_from is not None:
            stats["resumed_from"] = resumed_from

        # Detach: rebind the canonical state and the heuristic's lanes
        # onto private copies so both outlive the shared segment (the
        # caller may inspect the Γ store after the run).
        pool.detach_state(state, base)

        return StreamingResult(
            assignment=assignment,
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=base.num_partitions,
            stats=stats,
        )
