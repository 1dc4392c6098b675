"""The long-lived placement server (partition-as-a-service).

:class:`PlacementService` turns the repo's batch machinery into an
online system: it loads a graph once (through the binary CSR cache when
given a path), holds a live partitioner + :class:`PartitionState`, and
answers the version-1 wire protocol (:mod:`repro.service.protocol`) over
TCP for as long as the process lives.

Architecture — one engine, many connections::

    client conns ──> bounded queue ──> engine thread ──> WAL ──> acks
        (parse,          (backpressure     (apply,      (fsync)
         validate)        when full)        coalesce)

* Every connection gets a reader thread that parses and validates
  requests.  Read-only ops (``hello``, ``health``, ``lookup``,
  ``stats``) are answered right there; mutating ops (``place``,
  ``place_batch``, ``snapshot``) are enqueued to the single engine
  thread, which is the only code that touches partitioner state — no
  state locks on the hot path, no torn placements.
* The queue is **bounded**: when it is full the connection answers
  ``code: "backpressure"`` with a ``retry_after_ms`` hint instead of
  buffering without limit.  Slow consumers shed load explicitly.
* The engine drains up to ``batch_max`` queued requests per wake-up and
  applies their placements as one group, through one apply loop.  Every
  placement — batched or single, in id order or not, with the graph's
  adjacency or an explicit neighbor list, from any number of clients,
  at any ``parallelism`` — is scored and committed, in arrival order,
  by the one :class:`~repro.partitioning.base.PlacementKernel` that
  ``partition()`` runs: chunks of up to M records are scored against
  chunk-start state and committed through ``kernel.commit``, and
  ``parallelism == 1`` is the chunk of one, ``kernel.step``.  The
  kernel is built once, from live state, after boot or WAL replay; the
  engine thread is the only committer, which is what keeps its
  maintained images exact.
* Durability is snapshot + WAL (:mod:`repro.service.wal`): the engine
  applies a group, appends it to the fsynced placement log, and only
  then acks.  Periodic snapshots (the recovery layer's
  :class:`~repro.recovery.checkpoint.Checkpointer`) bound replay time;
  the WAL rotates at each snapshot.  ``resume_from`` at boot restores
  the newest snapshot and replays the WAL tail **through the
  partitioner** (re-scoring each logged record and checking the choice
  matches the logged pid), so a SIGKILLed server comes back answering
  ``lookup`` identically for every placement it ever acknowledged.
* Graceful shutdown (:meth:`close`, wired to SIGTERM by the CLI) stops
  accepting work, drains the queue, writes a final snapshot, and closes
  connections — in that order.

Resilience (the :mod:`repro.resilience` layer, revision 1.1 of the
protocol):

* **Admission control** — an
  :class:`~repro.resilience.admission.AdmissionController` sheds
  ``place`` traffic with ``overloaded`` *before* the queue saturates
  (queue-depth watermark, engine-lag EWMA) and rejects requests whose
  ``deadline_ms`` budget is already unmeetable with
  ``deadline_exceeded``; the engine re-checks deadlines at dequeue so a
  budget that expired while queued fails instead of acking late.
* **Degraded modes** — a
  :class:`~repro.resilience.health.HealthMonitor` state machine
  (``healthy → degraded → read_only → draining``).  A WAL append
  failure no longer kills the engine: the group's entries are parked in
  ``_pending_entries``, the affected requests fail with ``read_only``
  (they were never acked, so durability is not violated), and the
  server keeps answering lookups/stats/health.  :meth:`try_recover`
  (optionally on a timer via ``recovery_probe_interval``) flushes the
  parked entries and returns to ``healthy``.  Repeated snapshot
  failures degrade the same way.  Every transition emits a
  ``health_transition`` trace record.

Multicore serving (revision 1.2 of the protocol):

* **Grouped scoring** — ``parallelism M > 1`` scores queued placements
  in M-record chunks against chunk-start state and commits them in
  arrival order, the exact discipline of
  :class:`~repro.parallel.executor.SimulatedParallelPartitioner` at
  ``use_rct=False``.  ``processes N > 1`` has those same chunks scored
  by a :class:`~repro.parallel.process.ShardedScorePool` of worker
  processes over one shared-memory segment (they call the heuristic's
  reference ``_score``; the engine commits through its kernel either
  way); because who scores is the only difference, the sharded server
  is **byte-parity** (route table and WAL bytes) with the
  single-engine server at the same M.  Grouped WAL lines carry the
  scoring-group id so a restarted server replays groups under the
  discipline that produced them.
* **Lock-free reads** — ``lookup``/``stats``/``health`` are answered
  by connection threads against a seqlock-versioned
  :class:`_RouteReadView` published *after* each group's fsync and
  *before* its acks release, so a read can never observe a placement
  that was not durably acked, and never blocks on the engine.
* **Pipelined WAL** — a :class:`_WalCommitter` thread overlaps one
  group's fsync with the next group's scoring (double-buffered group
  commit).  Acks still release only after fsync; a failed append parks
  the entries and degrades to read-only exactly like the synchronous
  path, and the engine barriers the committer before snapshots,
  recovery, and shutdown.
"""

from __future__ import annotations

import copy
import queue
import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from .. import __version__
from ..graph.digraph import AdjacencyRecord, DiGraph
from ..graph.stream import ArrayStream
from ..partitioning.assignment import UNASSIGNED
from ..parallel.process import (
    ShardedScorePool,
    WorkerCrashedError,
    _StreamMeta,
)
from ..partitioning.base import PlacementKernel, StreamingPartitioner
from ..partitioning.config import PartitionConfig
from ..partitioning.registry import resolve
from ..recovery.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    latest_snapshot,
)
from ..recovery.snapshot import read_snapshot
from ..resilience.admission import AdmissionController
from ..resilience.health import (
    DEGRADED,
    DRAINING,
    HEALTHY,
    READ_ONLY,
    HealthMonitor,
)
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_REVISION,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    SUPPORTED_PROTOCOLS,
    ProtocolError,
    decode_line,
    encode_message,
    error_body,
)
from .wal import PlacementLog, WalEntry, replay_entries

__all__ = ["PlacementService"]

_SERVER_NAME = "repro-placement-service"

#: Engine-queue sentinel that tells the engine thread to exit after the
#: FIFO ahead of it has fully drained.
_STOP = object()


class _LatencyRecorder:
    """Per-endpoint latency reservoir feeding the ``stats`` endpoint."""

    def __init__(self, keep: int = 4096) -> None:
        self._lock = threading.Lock()
        self._keep = keep
        self._samples: dict[str, deque] = {}
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def observe(self, op: str, seconds: float, ok: bool) -> None:
        with self._lock:
            bucket = self._samples.get(op)
            if bucket is None:
                bucket = self._samples[op] = deque(maxlen=self._keep)
            bucket.append(seconds)
            self._counts[op] = self._counts.get(op, 0) + 1
            if not ok:
                self._errors[op] = self._errors.get(op, 0) + 1

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        # Nearest-rank percentile over the retained reservoir.
        idx = max(0, min(len(ordered) - 1,
                         int(-(-q * len(ordered) // 1)) - 1))
        return ordered[idx]

    def summary(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            snapshot = {op: list(bucket)
                        for op, bucket in self._samples.items()}
            counts = dict(self._counts)
            errors = dict(self._errors)
        out: dict[str, dict[str, Any]] = {}
        for op, samples in snapshot.items():
            samples.sort()
            out[op] = {
                "count": counts.get(op, 0),
                "errors": errors.get(op, 0),
                "p50_ms": self._percentile(samples, 0.50) * 1e3,
                "p95_ms": self._percentile(samples, 0.95) * 1e3,
                "p99_ms": self._percentile(samples, 0.99) * 1e3,
                "max_ms": samples[-1] * 1e3,
            }
        return out


class _Work:
    """One queued engine task: placements, a snapshot, or a recovery."""

    __slots__ = ("kind", "placements", "event", "results", "error",
                 "deadline")

    def __init__(self, kind: str,
                 placements: list[tuple[int, list[int] | None]],
                 deadline: float | None = None) -> None:
        self.kind = kind
        self.placements = placements
        self.event = threading.Event()
        self.results: Any = None
        self.error: tuple[str, str] | None = None
        #: Absolute ``time.monotonic()`` deadline from the request's
        #: ``deadline_ms`` budget; the engine re-checks it at dequeue.
        self.deadline = deadline

    def resolve(self, results: Any) -> None:
        self.results = results
        self.event.set()

    def fail(self, code: str, message: str) -> None:
        self.error = (code, message)
        self.event.set()


class _RouteReadView:
    """Seqlock-versioned, acked-only snapshot of the route table.

    One writer at a time (serialized by the service's publish lock)
    bumps ``seq`` to odd, mutates, bumps back to even; readers retry
    while ``seq`` is odd or changed across their read.  Because the
    writer publishes only *after* a group's WAL fsync and *before* its
    acks release, a reader can never observe a placement that was not
    durably acknowledged — unlike the in-memory route table, which runs
    ahead of the log whenever a WAL append is in flight or has failed.

    ``hold_seconds`` is a test hook: a positive value makes the writer
    sleep inside the odd-``seq`` window so the reader retry path can be
    exercised deterministically.
    """

    def __init__(self, num_vertices: int, num_partitions: int) -> None:
        self.seq = 0  # even = stable; odd = write in progress
        self.route = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        self.loads = np.zeros(num_partitions, dtype=np.int64)
        self.edge_loads = np.zeros(num_partitions, dtype=np.int64)
        self.position = 0
        self.placements = 0
        self.overflows = 0
        self.retries = 0  # reader-side seqlock retries (approximate)
        self.hold_seconds = 0.0

    # -- writer side (publish lock held by the service) ----------------
    def publish(self, pairs, *, loads, edge_loads, position,
                placements, overflows) -> None:
        self.seq += 1
        if self.hold_seconds:
            time.sleep(self.hold_seconds)
        route = self.route
        for vertex, pid in pairs:
            route[vertex] = pid
        self.loads[:] = loads
        self.edge_loads[:] = edge_loads
        self.position = int(position)
        self.placements = int(placements)
        self.overflows = int(overflows)
        self.seq += 1

    def publish_full(self, route: np.ndarray, *, loads, edge_loads,
                     position, placements, overflows) -> None:
        """Wholesale publish (boot/resume, before any reader exists)."""
        self.seq += 1
        if self.hold_seconds:
            time.sleep(self.hold_seconds)
        np.copyto(self.route, route)
        self.loads[:] = loads
        self.edge_loads[:] = edge_loads
        self.position = int(position)
        self.placements = int(placements)
        self.overflows = int(overflows)
        self.seq += 1

    # -- reader side (any thread, no locks) ----------------------------
    def read_route(self, vertex: int) -> int:
        while True:
            s1 = self.seq
            if s1 & 1:
                self.retries += 1
                time.sleep(0)  # yield to the writer mid-publish
                continue
            pid = int(self.route[vertex])
            if self.seq == s1:
                return pid
            self.retries += 1

    def read_summary(self) -> dict[str, Any]:
        """Consistent scalar+load snapshot for the stats endpoint."""
        while True:
            s1 = self.seq
            if s1 & 1:
                self.retries += 1
                time.sleep(0)
                continue
            out = {
                "loads": [int(x) for x in self.loads],
                "edge_loads": [int(x) for x in self.edge_loads],
                "position": int(self.position),
                "placements": int(self.placements),
                "overflows": int(self.overflows),
            }
            if self.seq == s1:
                return out
            self.retries += 1


class _Commit:
    """One group's durability hand-off from the engine to the committer."""

    __slots__ = ("entries", "applied", "scalars", "requests")

    def __init__(self, entries, applied, scalars, requests) -> None:
        self.entries = entries
        self.applied = applied
        self.scalars = scalars
        #: Requests (works) riding this commit — the admission
        #: controller counts them as in-flight pipeline depth.
        self.requests = requests


class _WalCommitter:
    """Double-buffered group commit: fsync group N while N+1 scores.

    The engine applies a group in memory, captures the ack payloads and
    an acked-state scalar snapshot, and hands everything here; this
    thread runs the service's one durable-commit routine
    (:meth:`PlacementService._commit_durably`: append + fsync, publish
    the read view, only then release the acks — or park, fail and
    degrade) off the scoring thread.  The bounded queue (one committing
    + one queued) is the double buffer — a third group's ``submit``
    blocks the engine, bounding how far in-memory state can run ahead
    of the log.
    """

    def __init__(self, service: "PlacementService") -> None:
        self._service = service
        self._queue: queue.Queue = queue.Queue(maxsize=2)
        self._inflight_lock = threading.Lock()
        self._inflight_requests = 0
        self.committed_groups = 0
        self._aborted = False
        self._thread = threading.Thread(target=self._loop,
                                        name="placement-wal-commit",
                                        daemon=True)
        self._thread.start()

    @property
    def inflight_requests(self) -> int:
        with self._inflight_lock:
            return self._inflight_requests

    def _add_inflight(self, n: int) -> None:
        with self._inflight_lock:
            self._inflight_requests += n

    def submit(self, commit: _Commit) -> None:
        """Engine-thread hand-off; blocks when two groups are in flight."""
        self._add_inflight(commit.requests)
        self._queue.put(commit)

    def barrier(self) -> None:
        """Block until every commit submitted so far is fully resolved.

        The engine calls this before snapshots (the WAL must cover the
        snapshot position before rotating), before recovery (pending
        entries must be complete), and during shutdown.
        """
        event = threading.Event()
        self._queue.put(event)
        while not event.wait(0.05):
            if not self._thread.is_alive():
                # Stopped (or died) with our marker unserved; nothing
                # can be in flight any more — the barrier holds.
                return

    def stop(self, timeout: float = 30.0) -> None:
        self._queue.put(_STOP)
        self._thread.join(timeout)

    def abort(self) -> None:
        """Crash-style teardown: drop in-flight commits unresolved.

        In-flight entries were never acked, so forgetting them is
        exactly what a SIGKILL would do — the chaos harness's crash
        teardown uses this to avoid fsyncing work a real crash would
        have lost.
        """
        self._aborted = True
        try:
            self._queue.put_nowait(_STOP)
        except queue.Full:
            pass
        self._thread.join(1.0)

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if isinstance(item, threading.Event):
                item.set()
                continue
            if not self._aborted and self._service._commit_durably(item):
                self.committed_groups += 1
            self._add_inflight(-item.requests)


def _cached(route: np.ndarray, vertex: int) -> dict[str, Any]:
    """The idempotent answer for an already-placed vertex."""
    return {"vertex": vertex, "pid": int(route[vertex]), "cached": True}


def _resolve_graph(graph: Any) -> DiGraph:
    """Accept a ready graph or a path (loaded via the CSR cache)."""
    if isinstance(graph, DiGraph):
        return graph
    if isinstance(graph, (str, Path)):
        from ..ingest.cache import load_or_parse
        return load_or_parse(Path(graph), cache=True)
    raise TypeError(
        f"graph must be a DiGraph or a path, got {type(graph).__name__}")


def resolve_sharded_config(config: PartitionConfig,
                           processes: int) -> PartitionConfig:
    """Resolve ``gamma_store="auto"`` for process-sharded serving.

    The auto rule picks the sliding-window Γ store on large graphs, but
    the window's rotation cursor is inherently sequential — pool workers
    scoring against it would read stale shards.  ``"auto"`` means "pick
    something that works", so sharded serving resolves it to the dense
    store here; only an *explicit* ``gamma_store="window"`` request
    still fails the shared-lane check in ``__init__``.  The resolved
    config is what the server records (and what snapshots carry), so
    the bench reference partitioner and a later single-process resume
    score against the same store.
    """
    if processes > 1 and config.gamma_store in (None, "auto"):
        return config.replace(gamma_store="dense")
    return config


class PlacementService:
    """A live, restartable placement server over one loaded graph.

    Parameters
    ----------
    graph:
        A :class:`DiGraph` or a path to a graph file (loaded through the
        ``.reprocsr`` cache sidecar).
    config:
        The run's :class:`PartitionConfig` (default: ``PartitionConfig()``
        — SPNL, K=32).  Must name a *streaming* method.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`address`).
    snapshot_dir:
        Durability directory for snapshots + the placement WAL.  ``None``
        runs volatile (no durability — acks do not survive a crash).
    resume_from:
        Snapshot directory (or single ``.snap`` file) of a previous run
        to warm-restart from; the WAL tail beside it is replayed so every
        previously-acked placement is answered identically.
    queue_depth:
        Bound on queued engine requests; beyond it, ``backpressure``.
    batch_max:
        Max queued requests coalesced into one engine step.
    snapshot_every:
        Placements between automatic snapshots (when durable).
    snapshot_keep:
        Snapshots retained by pruning.
    wal_fsync:
        ``False`` trades crash durability for latency (testing only).
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`; the
        engine emits one ``service_request`` trace record per processed
        group and the checkpointer its usual ``checkpoint`` records.
    throttle_seconds:
        Artificial per-group engine delay — a test hook for driving the
        backpressure path deterministically.
    shed_watermark:
        Queue-depth fraction past which admission control sheds
        ``place`` traffic with ``overloaded`` (``1.0`` disables early
        shedding; the full queue still answers ``backpressure``).
    max_lag_seconds:
        Expected-engine-wait ceiling for the admission controller's lag
        watermark (``None`` disables it).
    snapshot_failure_limit:
        Consecutive snapshot failures before the server drops from
        ``degraded`` to ``read_only``.
    recovery_probe_interval:
        Seconds between automatic :meth:`try_recover` probes while the
        server is ``read_only`` (``0`` disables the probe thread; the
        chaos harness drives recovery explicitly instead).
    wal_factory:
        Callable building the placement log
        (``factory(directory, start=, fsync=) -> PlacementLog``);
        injection point for the chaos harness's
        :class:`~repro.recovery.chaos.FlakyWAL`.
    parallelism:
        The paper's M — queued placements scored concurrently per
        chunk.  ``None`` picks 1 (the sequential engine: score and
        commit record by record) unless ``processes > 1``, where
        it defaults to ``16 * processes``.  Values > 1 score an
        M-chunk against chunk-start state before committing it in
        order, whether or not worker processes are attached, so the
        single-engine grouped server is the byte-parity reference for
        the sharded one.
    processes:
        Worker processes scoring each chunk
        (:class:`~repro.parallel.process.ShardedScorePool`); 1 scores
        in the engine thread.  ``> 1`` requires the heuristic to
        declare shared score lanes (dense/hashed Γ stores).
    wal_pipeline:
        Overlap each group's WAL fsync with the next group's scoring
        (default on when durable).  ``False`` forces the synchronous
        append-then-ack path.
    max_worker_restarts, worker_timeout:
        Worker-pool supervision budget (``processes > 1`` only).
    """

    def __init__(self, graph: Any, *, config: PartitionConfig | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 snapshot_dir: str | Path | None = None,
                 resume_from: str | Path | None = None,
                 queue_depth: int = 64, batch_max: int = 256,
                 snapshot_every: int = 100_000, snapshot_keep: int = 3,
                 wal_fsync: bool = True, instrumentation: Any = None,
                 throttle_seconds: float = 0.0,
                 retry_after_ms: int = 25,
                 shed_watermark: float = 0.85,
                 max_lag_seconds: float | None = None,
                 snapshot_failure_limit: int = 3,
                 recovery_probe_interval: float = 0.0,
                 wal_factory: Any = None,
                 parallelism: int | None = None,
                 processes: int = 1,
                 wal_pipeline: bool = True,
                 max_worker_restarts: int = 2,
                 worker_timeout: float = 120.0) -> None:
        if config is None:
            config = PartitionConfig()
        elif isinstance(config, dict):
            config = PartitionConfig.from_dict(config)
        config = resolve_sharded_config(config, processes)
        if not resolve(config.method).is_streaming:
            raise ValueError(
                f"the placement service needs a streaming method; "
                f"{config.method!r} is offline")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if processes < 1:
            raise ValueError("processes must be >= 1")
        if parallelism is None:
            parallelism = 16 * processes if processes > 1 else 1
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if processes > 1 and parallelism < processes:
            raise ValueError(
                f"parallelism (M={parallelism}) must be >= processes "
                f"(N={processes}); each worker scores at least one "
                f"record per chunk")
        self._parallelism = int(parallelism)
        self._processes = int(processes)
        self.graph = _resolve_graph(graph)
        self.config = config
        self.instrumentation = instrumentation
        self.throttle_seconds = float(throttle_seconds)
        self.retry_after_ms = int(retry_after_ms)
        self._host = host
        self._port = port
        self._batch_max = batch_max
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._latency = _LatencyRecorder()
        self._started_monotonic = time.monotonic()
        self._admission = AdmissionController(
            queue_depth, shed_watermark=shed_watermark,
            max_lag_seconds=max_lag_seconds)
        self._health = HealthMonitor(
            on_transition=self._emit_health_transition)
        if snapshot_failure_limit < 1:
            raise ValueError("snapshot_failure_limit must be >= 1")
        self._snapshot_failure_limit = snapshot_failure_limit
        self._snapshot_failures = 0
        self.recovery_probe_interval = float(recovery_probe_interval)
        self._wal_factory = wal_factory
        # WAL entries applied in memory but not yet durable (their
        # requests were *failed*, not acked); flushed by try_recover.
        self._pending_entries: list[WalEntry] = []
        self._deadline_expired = 0
        self._last_shed_total = 0

        partitioner = config.make()
        if not isinstance(partitioner, StreamingPartitioner):
            raise ValueError(
                f"{config.method!r} did not build a StreamingPartitioner")
        self.partitioner = partitioner
        # Pristine clone for pool workers, taken before _setup allocates
        # the per-run structures (each worker reruns _setup itself).
        self._worker_template = copy.deepcopy(partitioner) \
            if processes > 1 else None
        self._stream = ArrayStream.from_graph(self.graph)
        self._state_lock = threading.Lock()
        self._elapsed = 0.0  # cumulative engine apply time (snapshot PT)
        self._position = 0   # acked placements == WAL sequence head
        self._kernel_requests = 0
        self._groups_processed = 0
        # Whether every placement so far arrived in exact id order (the
        # paper's streaming arrival model); bench parity checks read it.
        self._arrival_ordered = True
        self._next_expected = 0
        # Grouped-scoring bookkeeping (parallelism M > 1).  _chunk_seq
        # stamps WAL lines with a scoring-group id; _m_aligned tracks
        # whether the chunk sequence so far matches what an M-batch
        # executor over the same stream would have formed (bench parity
        # against SimulatedParallelPartitioner gates on it).
        self._chunk_seq = 0
        self._chunks_scored = 0
        self._pool_chunks = 0
        self._m_aligned = True
        self._m_tail_seen = False
        meta = _StreamMeta(self._stream)
        if meta.max_degree is not None:
            budget = min(meta.num_edges,
                         self._parallelism * meta.max_degree)
        else:
            budget = meta.num_edges
        # Mirrors the pool's ring_neighbors capacity formula so chunk
        # boundaries are identical with and without worker processes.
        self._chunk_budget = max(int(budget), 1)
        self._stream_meta = meta

        if resume_from is not None:
            self._resume(Path(resume_from))
        else:
            self._state = partitioner.make_state(self._stream)
            partitioner._setup(self._stream, self._state)
            self._resumed_from = None
        #: Placements made before this process booted (snapshot + WAL
        #: replay); everything past it went through this engine.
        self._boot_position = self._position

        # Worker pool (processes > 1): the canonical state moves into
        # the pool's shared segment so workers score against it live.
        self._pool: ShardedScorePool | None = None
        if processes > 1:
            lanes = partitioner.score_lanes()
            if lanes is None:
                raise ValueError(
                    f"{partitioner.name} does not declare shared score "
                    "lanes and cannot serve process-sharded (sliding-"
                    "window Γ stores are sequential by design; use "
                    "gamma_store='dense' or 'hashed')")
            pool = ShardedScorePool(
                self._worker_template, self._stream_meta, lanes,
                group_max=self._parallelism, num_workers=processes,
                use_rct=False,
                max_worker_restarts=max_worker_restarts,
                worker_timeout=worker_timeout,
                instrumentation=instrumentation)
            try:
                pool.bind_state(self._state, partitioner, lanes)
                pool.prewarm()
            except BaseException:
                pool.close()
                raise
            self._pool = pool
        self._pool_failed = False
        # The engine's one way to place a vertex, whatever M: built
        # from live (possibly replayed) state, and only after the pool
        # moved that state into its segment — the kernel captures the
        # route table, the tallies and the heuristic's lanes by
        # reference.  Dropped again when the pool detaches.
        self._kernel: PlacementKernel | None = PlacementKernel(
            partitioner, self._state)
        # Rows for a chunk scored in the engine thread (kernel.score
        # hands out one scratch row; a chunk keeps M of them).
        self._score_block = np.empty(
            (self._parallelism, partitioner.num_partitions))

        # Lock-free read path: connection threads answer lookup/stats
        # from this seqlock view, never from live engine state.
        self._read_view = _RouteReadView(self.graph.num_vertices,
                                         partitioner.num_partitions)
        self._publish_lock = threading.Lock()
        self._publish_state()

        # Durability: snapshots + WAL share snapshot_dir.  A fresh boot
        # into a directory holding a previous run's artifacts would
        # append conflicting sequence numbers — refuse instead.
        self._checkpointer = None
        self._wal = None
        self._last_snapshot_position = self._position
        if snapshot_dir is not None:
            snapshot_dir = Path(snapshot_dir)
            if resume_from is None and (
                    latest_snapshot(snapshot_dir) is not None
                    or any(snapshot_dir.glob("wal-*.jsonl"))):
                raise ValueError(
                    f"{snapshot_dir} holds a previous run's snapshots/WAL;"
                    f" pass resume_from= to warm-restart, or point "
                    f"snapshot_dir at a clean directory")
            self._checkpointer = Checkpointer(
                partitioner,
                CheckpointConfig(snapshot_dir, every=snapshot_every,
                                 keep=snapshot_keep),
                instrumentation=instrumentation)
            factory = self._wal_factory or PlacementLog
            self._wal = factory(snapshot_dir, start=self._position,
                                fsync=wal_fsync)
        self._wal_pipeline = bool(wal_pipeline)
        self._committer: _WalCommitter | None = None
        if self._wal is not None and self._wal_pipeline:
            self._committer = _WalCommitter(self)

        self._draining = threading.Event()
        self._shutdown_requested = threading.Event()
        self._closed = False
        self._close_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()

    # -- boot ----------------------------------------------------------
    @classmethod
    def start(cls, graph: Any, **kwargs: Any) -> "PlacementService":
        """Construct and begin serving; the one-call boot used by
        :func:`repro.serve`."""
        service = cls(graph, **kwargs)
        service.serve()
        return service

    def serve(self) -> None:
        """Bind the listener and start the accept + engine threads."""
        self._listener = socket.create_server(
            (self._host, self._port), reuse_port=False)
        self._listener.listen(64)
        engine = threading.Thread(target=self._engine_loop,
                                  name="placement-engine", daemon=True)
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="placement-accept", daemon=True)
        self._threads += [engine, acceptor]
        engine.start()
        acceptor.start()
        if self.recovery_probe_interval > 0:
            prober = threading.Thread(target=self._recovery_probe_loop,
                                      name="placement-recovery-probe",
                                      daemon=True)
            self._threads.append(prober)
            prober.start()

    def _recovery_probe_loop(self) -> None:
        """Periodically attempt recovery while the server is read-only."""
        while not self._shutdown_requested.wait(
                self.recovery_probe_interval):
            if self._draining.is_set():
                return
            if self._health.state == READ_ONLY:
                self.try_recover()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read this when booting on port 0."""
        if self._listener is None:
            raise RuntimeError("service is not serving yet")
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    # -- warm restart --------------------------------------------------
    def _resume(self, source: Path) -> None:
        """Restore the newest snapshot under ``source``, replay the WAL.

        Replay re-runs every logged placement through a placement
        kernel built over the restored state — the step the engine
        itself places with — and checks the deterministic choice equals
        the logged pid: a mismatch means the log and code disagree and
        serving on would hand out wrong ``lookup`` answers.  The lines
        say how they were scored: those sharing a group stamp were one
        chunk (scored whole against chunk-start state, committed in
        logged order), an unstamped line (``parallelism == 1``) is the
        chunk of one.  The engine's own kernel is built afterwards,
        from the replayed state.
        """
        directory = source if source.is_dir() else source.parent
        snapshot = source if source.is_file() else latest_snapshot(source)
        if snapshot is not None:
            payload = read_snapshot(snapshot)
            self._state = self.partitioner.load_state(self._stream, payload)
            self._position = int(payload["position"])
            self._elapsed = float(payload.get("elapsed_seconds", 0.0))
        else:
            self._state = self.partitioner.make_state(self._stream)
            self.partitioner._setup(self._stream, self._state)
            self._position = 0
        kernel = PlacementKernel(self.partitioner, self._state)
        replayed = 0
        chunk: list[tuple[WalEntry, np.ndarray]] = []
        last_gid = -1

        def replay_chunk() -> None:
            rows = [kernel.score(entry.vertex, neighbors).copy()
                    for entry, neighbors in chunk]
            for (entry, neighbors), row in zip(chunk, rows):
                pid = kernel.commit(entry.vertex, neighbors, row)
                if pid != entry.pid:
                    raise ValueError(
                        f"WAL replay diverged at seq {entry.seq}: vertex "
                        f"{entry.vertex} re-places to {pid}, log says "
                        f"{entry.pid}")
            if chunk[0][0].group is not None:
                self._note_chunk(len(chunk))
            chunk.clear()

        for entry in replay_entries(directory,
                                    from_position=self._position):
            if chunk and entry.group != chunk[0][0].group:
                replay_chunk()
            if entry.neighbors is None:
                neighbors = self.graph.out_neighbors(entry.vertex)
            else:
                neighbors = np.asarray(entry.neighbors, dtype=np.int64)
            chunk.append((entry, neighbors))
            if entry.group is None:
                replay_chunk()
            else:
                last_gid = max(last_gid, entry.group)
            self._position += 1
            replayed += 1
        if chunk:
            replay_chunk()
        if last_gid >= 0:
            # Resume group ids past the log's highest so a re-replay
            # after the next crash never merges pre- and post-restart
            # entries into one scoring group.
            self._chunk_seq = last_gid + 1
        # Arrival stayed in id order iff history is exactly the prefix
        # (every placement so far is vertex 0..p-1).
        route = self._state.route
        p = self._position
        self._arrival_ordered = (int(self._state.placed_vertices) == p
                                 and bool((route[:p] != UNASSIGNED).all()))
        self._next_expected = p if self._arrival_ordered else 0
        self._resumed_from = str(snapshot) if snapshot is not None \
            else str(directory)
        if self.instrumentation is not None and snapshot is not None:
            self.instrumentation.count("resumes")
            self.instrumentation.emit({
                "type": "resume",
                "position": int(self._position),
                "placements": int(self._state.placed_vertices),
                "path": str(snapshot),
                "partitioner": self.partitioner.name,
            })
        self._replayed = replayed

    # -- engine --------------------------------------------------------
    def _engine_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            group = [item]
            while len(group) < self._batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    self._process_group_safely(group)
                    group = []
                    break
                group.append(nxt)
            else:
                self._process_group_safely(group)
                continue
            if not group:  # saw _STOP mid-drain
                break
            self._process_group_safely(group)
        # Anything enqueued after the sentinel never runs; fail it
        # explicitly so no connection blocks forever.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _STOP:
                leftover.fail("draining",
                              "server is draining; placement not applied")

    def _process_group_safely(self, group: list[_Work]) -> None:
        """Run one group; an unexpected engine error degrades, not dies.

        :meth:`_process_group` handles every *anticipated* failure
        (WAL, snapshot, per-placement errors) itself; anything that
        still escapes would previously kill the engine thread silently,
        stranding every connection.  Instead: fail the group's
        unresolved works, drop to ``read_only``, keep serving reads.
        """
        try:
            self._process_group(group)
        except Exception as exc:  # pragma: no cover - defensive
            for work in group:
                if not work.event.is_set():
                    work.fail("internal", f"engine error: {exc}")
            self._health.transition(READ_ONLY, "engine_error",
                                    detail=repr(exc))

    def _process_group(self, group: list[_Work]) -> None:
        """Apply one drained group: coalesce, group-commit, then ack.

        Place requests in the group are stable-sorted by their first
        vertex id before applying.  Commit order within a group is the
        server's to choose (nothing has been acked yet), and sorting
        repairs the id-order inversions that concurrent clients
        naturally produce — id order is what the sliding-window Γ store
        and SPNL's Range locality assume.  All WAL lines for the group
        go down in one fsync (group commit); acks release after.
        """
        t0 = time.perf_counter()
        if self.throttle_seconds:
            time.sleep(self.throttle_seconds)
        place_works = [w for w in group if w.kind == "place"]
        other_works = [w for w in group if w.kind != "place"]
        place_works.sort(
            key=lambda w: w.placements[0][0] if w.placements else -1)
        now = time.monotonic()
        with self._state_lock:
            applied, entries, placements, ok = \
                self._apply_group(place_works, now)
            if applied or entries:
                commit = _Commit(entries, applied, self._ack_scalars(),
                                 len(applied))
                if self._committer is not None:
                    # Pipelined: the committer fsyncs, publishes and
                    # acks while the engine returns to scoring.
                    self._committer.submit(commit)
                elif not self._commit_durably(commit):
                    ok = False
            for work in other_works:
                if work.kind == "recover":
                    try:
                        work.resolve(self._attempt_recovery())
                    except Exception as exc:
                        ok = False
                        work.fail("read_only", f"recovery failed: {exc}")
                    continue
                try:
                    work.resolve(self._snapshot_now())
                    self._note_snapshot_success()
                except ProtocolError as exc:
                    ok = False
                    work.fail(exc.code, str(exc))
                except Exception as exc:
                    ok = False
                    self._note_snapshot_failure(exc)
                    work.fail("internal", f"snapshot failed: {exc}")
            if (self._checkpointer is not None
                    and self._health.allows_mutation
                    and self._position - self._last_snapshot_position
                    >= self._checkpointer.config.every):
                try:
                    self._snapshot_now()
                    self._note_snapshot_success()
                except Exception as exc:
                    self._note_snapshot_failure(exc)
        elapsed = time.perf_counter() - t0
        if placements:
            self._admission.observe_group(elapsed, placements)
        self._groups_processed += 1
        if self.instrumentation is not None:
            shed_total = self._admission.stats()["shed_total"]
            shed_delta = shed_total - self._last_shed_total
            self._last_shed_total = shed_total
            self.instrumentation.emit({
                "type": "service_request",
                "op": "place" if placements else group[0].kind,
                "count": int(placements),
                "queue_depth": int(self._queue.qsize()),
                "elapsed_seconds": elapsed,
                "ok": ok,
                "fused": len(entries),
                "shed": int(shed_delta),
            })

    def _apply_group(
            self, place_works: list[_Work], now: float
    ) -> tuple[list[tuple[_Work, list[dict[str, Any]]]],
               list[WalEntry], int, bool]:
        """Apply the drained place requests: the one apply loop.

        Every live placement flows, in arrival order, through one
        chunker: a chunk closes at M records, or earlier when the next
        record would blow the flat-neighbor budget (mirroring the worker
        ring's capacity so chunk boundaries are identical with and
        without a pool).  Each chunk is scored whole against chunk-start
        state — by the kernel here, or by the pool's workers — and
        committed in arrival order through ``kernel.commit``: the
        :class:`~repro.parallel.executor.SimulatedParallelPartitioner`
        discipline at ``use_rct=False``.  ``parallelism == 1`` is the
        chunk of one, which is ``kernel.step``; its WAL lines carry no
        group stamp.  Idempotent: an already-placed vertex answers its
        existing pid with ``cached: true`` and writes no WAL line.

        What committed stays committed: the returned entries hold a
        line for every commit made — also those of a request that
        failed further on, which must reach the log because a retry
        will answer them ``cached`` — and a request acks only when
        every one of its placements committed.  After an error the rest
        of the group fails with it.
        """
        applied: list[tuple[_Work, list[dict[str, Any]]]] = []
        entries: list[WalEntry] = []
        placements = 0
        ok = True
        live: list[tuple[_Work, list[dict[str, Any] | None]]] = []
        for work in place_works:
            if work.deadline is not None and now >= work.deadline:
                # The budget died in the queue; applying now would
                # ack after the client stopped caring.  Fail without
                # touching state — nothing to roll back.
                ok = False
                self._deadline_expired += 1
                work.fail("deadline_exceeded",
                          "deadline budget expired while the request "
                          "was queued; placement not applied")
                continue
            if not self._health.allows_mutation:
                # Degraded after this work was admitted: refuse
                # rather than pile more non-durable state on top.
                ok = False
                work.fail("read_only",
                          f"server went {self._health.state} while "
                          f"the request was queued; placement not "
                          f"applied")
                continue
            placements += len(work.placements)
            live.append((work, [None] * len(work.placements)))
        route = self._state.route
        indptr, indices = self._stream.indptr, self._stream.indices
        step = self._kernel.step
        log_commit = self._log_commit
        parallelism = self._parallelism
        clock = time.perf_counter
        # One chunk in the making: (results, slot, record, neighbors as
        # the client sent them) per record, and its flat-neighbor count.
        chunk: list[tuple[list, int, AdjacencyRecord,
                          list[int] | None]] = []
        chunk_edges = 0
        error: Exception | None = None
        try:
            for work, results in live:
                self._kernel_requests += 1
                for slot, (vertex, neighbors) in enumerate(work.placements):
                    if route[vertex] != UNASSIGNED:
                        # Committed before this chunk formed.
                        results[slot] = _cached(route, vertex)
                        continue
                    if neighbors is None:
                        nbrs = indices[indptr[vertex]:indptr[vertex + 1]]
                    else:
                        nbrs = np.asarray(neighbors, dtype=np.int64)
                    if parallelism == 1:
                        t0 = clock()
                        pid = step(vertex, nbrs)
                        self._elapsed += clock() - t0
                        log_commit(entries, results, slot, vertex,
                                   neighbors, pid, None)
                        continue
                    if chunk and chunk_edges + len(nbrs) > self._chunk_budget:
                        self._commit_chunk(chunk, chunk_edges, entries)
                        chunk_edges = 0
                    chunk.append((results, slot,
                                  AdjacencyRecord(vertex, nbrs), neighbors))
                    chunk_edges += len(nbrs)
                    if len(chunk) >= parallelism:
                        self._commit_chunk(chunk, chunk_edges, entries)
                        chunk_edges = 0
            if chunk:
                self._commit_chunk(chunk, chunk_edges, entries)
        except WorkerCrashedError as exc:
            # The pool is unusable until recovery resets it.
            error = exc
            self._pool_failed = True
            self._health.transition(READ_ONLY, "worker_pool_failed",
                                    detail=str(exc))
        except Exception as exc:
            error = exc
        for work, results in live:
            if None in results:
                ok = False
                work.fail("internal", f"placement failed: {error}")
            else:
                applied.append((work, results))
        return applied, entries, placements, ok

    def _commit_chunk(self, chunk: list, chunk_edges: int,
                      entries: list[WalEntry]) -> None:
        """Score ``chunk`` against chunk-start state, commit it in
        order through the kernel, and empty it."""
        gid = self._chunk_seq
        self._chunk_seq += 1
        self._note_chunk(len(chunk))
        kernel = self._kernel
        route = self._state.route
        t0 = time.perf_counter()
        pool = self._pool
        if pool is not None and not self._pool_failed \
                and chunk_edges <= pool.neighbor_capacity:
            rows = pool.score_group([record for _, _, record, _ in chunk])
            self._pool_chunks += 1
        else:
            # No pool, pool down, or an oversize explicit-neighbor
            # chunk that cannot fit a ring slot: score in the engine.
            # The fused and the reference scores are bit-identical, so
            # byte-parity is unaffected.
            rows = self._score_block
            for row, (_, _, record, _) in zip(rows, chunk):
                row[:] = kernel.score(record.vertex, record.neighbors)
        for (results, slot, record, neighbors), row in zip(chunk, rows):
            vertex = record.vertex
            if route[vertex] != UNASSIGNED:
                # Duplicate within the chunk: an earlier occurrence
                # just committed; answer cached, drop the stale score.
                results[slot] = _cached(route, vertex)
                continue
            self._log_commit(
                entries, results, slot, vertex, neighbors,
                kernel.commit(vertex, record.neighbors, row), gid)
        self._elapsed += time.perf_counter() - t0
        chunk.clear()

    def _log_commit(self, entries: list[WalEntry], results: list,
                    slot: int, vertex: int, neighbors: list[int] | None,
                    pid: int, gid: int | None) -> None:
        """Book one commit: its answer, its WAL line, the position and
        whether arrival is still in exact id order."""
        results[slot] = {"vertex": vertex, "pid": pid, "cached": False}
        entries.append(WalEntry(self._position, vertex, neighbors, pid, gid))
        self._position += 1
        if self._arrival_ordered:
            if vertex == self._next_expected:
                self._next_expected += 1
            else:
                self._arrival_ordered = False

    def _note_chunk(self, size: int) -> None:
        """Track whether chunking still matches exact M-batching.

        :class:`~repro.parallel.executor.SimulatedParallelPartitioner`
        forms batches of exactly M records (one short tail at stream
        end).  The service's chunks depend on arrival timing, so parity
        checks (loadgen ``--verify``) gate on this flag: any chunk after
        a short one means the sequences diverged.
        """
        self._chunks_scored += 1
        if self._m_tail_seen:
            self._m_aligned = False
        if size < self._parallelism:
            self._m_tail_seen = True

    def _ack_scalars(self) -> dict[str, Any]:
        """Copy the acked-state scalars for a read-view publish.

        Taken under the state lock at commit-capture time; copies, not
        views — with a pool bound, the live arrays are shared-memory
        views that keep mutating while a pipelined commit is in flight.
        """
        state = self._state
        return {
            "loads": np.array(state.vertex_counts),
            "edge_loads": np.array(state.edge_counts),
            "position": int(self._position),
            "placements": int(state.placed_vertices),
            "overflows": int(state.capacity_overflows),
        }

    def _commit_durably(self, commit: _Commit) -> bool:
        """Make one applied group durable, then visible, then acked.

        The one ack routine, run by whichever thread owns the commit:
        the WAL committer when the log is pipelined, else the engine.
        Append + fsync, only then publish the read view, only then
        release the acks; returns whether the group was acked.

        When the append fails — or an earlier one did and its entries
        still wait in ``_pending_entries``, where appending around the
        gap would corrupt the sequence — the placements are applied in
        memory but NOT durable.  The ack contract (acked == fsynced)
        forbids resolving them: the entries are parked in sequence
        order and flush before the server accepts mutations again, so a
        later idempotent retry's cached ack is backed by the log; the
        riders fail ``read_only``; and the read view is not published —
        readers must never see a placement that was not acked.
        """
        entries = commit.entries
        fault: str | None = None
        if self._pending_entries:
            fault = "log is recovering"
        elif self._wal is not None and entries:
            try:
                self._wal.append_batch(entries)
            except Exception as exc:
                fault = str(exc)
                self._health.transition(READ_ONLY, "wal_append_failed",
                                        detail=fault)
        if fault is not None:
            self._pending_entries.extend(entries)
            for work, _results in commit.applied:
                work.fail(
                    "read_only",
                    f"placement could not be made durable ({fault}); "
                    f"server is read-only until the log recovers")
            return False
        if entries:
            self._publish_entries(entries, commit.scalars)
        for work, results in commit.applied:
            work.resolve(results)
        return True

    def _publish_entries(self, entries: list[WalEntry],
                         scalars: dict[str, Any]) -> None:
        """Publish one durable group to the read view (post-fsync,
        pre-ack).  Engine thread on the synchronous path, committer
        thread on the pipelined one; the publish lock serializes them.
        """
        with self._publish_lock:
            self._read_view.publish(
                [(e.vertex, e.pid) for e in entries], **scalars)

    def _publish_state(self) -> None:
        """Wholesale read-view publish from live state (boot/recovery)."""
        state = self._state
        with self._publish_lock:
            self._read_view.publish_full(
                state.route,
                loads=state.vertex_counts,
                edge_loads=state.edge_counts,
                position=self._position,
                placements=state.placed_vertices,
                overflows=state.capacity_overflows)

    def _sync_committer(self) -> None:
        """Barrier the pipelined committer (no-op when synchronous)."""
        if self._committer is not None:
            self._committer.barrier()

    def _teardown_pool(self) -> None:
        """Release the worker pool; rebind state to private copies first
        so post-close introspection (stats, parity checks) still works.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._kernel = None  # its arrays are views of the segment
        try:
            pool.detach_state(self._state, self.partitioner)
        except Exception:
            pass
        pool.close()

    def _snapshot_now(self) -> dict[str, Any]:
        """Write a snapshot + rotate/prune the WAL (engine thread only)."""
        if self._checkpointer is None:
            raise ProtocolError(
                "server is running without a snapshot_dir; nothing to "
                "snapshot")
        # Pipelined commits must land before the rotation: a snapshot at
        # position P with un-fsynced lines below P still in flight would
        # strand those lines in the *new* segment, breaking prune/replay.
        self._sync_committer()
        path = self._checkpointer.save(self._state, self._position,
                                       self._elapsed)
        self._last_snapshot_position = self._position
        if self._wal is not None:
            self._wal.rotate(self._position)
            self._wal.prune(self._position)
        return {"path": str(path), "position": int(self._position)}

    # -- degraded modes + recovery -------------------------------------
    @property
    def health_state(self) -> str:
        """Current health-machine state (``healthy``/``degraded``/
        ``read_only``/``draining``)."""
        return self._health.state

    def health_history(self) -> list[dict[str, Any]]:
        """Bounded history of health transitions (newest last)."""
        return self._health.snapshot()["history"]

    def _emit_health_transition(self, record: dict[str, Any]) -> None:
        if self.instrumentation is not None:
            self.instrumentation.emit({
                "type": "health_transition",
                "from_state": record["from_state"],
                "to_state": record["to_state"],
                "reason": record["reason"],
            })

    def _note_snapshot_success(self) -> None:
        self._snapshot_failures = 0
        if self._health.state == DEGRADED:
            self._health.transition(HEALTHY, "snapshot_recovered")

    def _note_snapshot_failure(self, exc: Exception) -> None:
        self._snapshot_failures += 1
        if self._snapshot_failures >= self._snapshot_failure_limit:
            self._health.transition(
                READ_ONLY, "snapshot_failure_limit",
                detail=f"{self._snapshot_failures} consecutive snapshot "
                       f"failures: {exc}")
        else:
            self._health.transition(DEGRADED, "snapshot_failed",
                                    detail=str(exc))

    def _attempt_recovery(self) -> dict[str, Any]:
        """Engine-thread half of :meth:`try_recover` (under state lock).

        Flush the non-durable pending entries first: until they are on
        disk, the in-memory route table is ahead of the log and a crash
        would break ``resume_from`` parity for any later ack.  Only a
        complete flush earns the transition back to ``healthy``.
        """
        self._sync_committer()
        flushed = 0
        if self._wal is not None and self._pending_entries:
            self._wal.append_batch(list(self._pending_entries))
            flushed = len(self._pending_entries)
            self._pending_entries.clear()
        if self._pool is not None and self._pool_failed:
            # Surviving workers may hold stale dispatches from the group
            # that crashed; tear the pool down and respawn fresh.
            self._pool.reset()
            self._pool_failed = False
        self._snapshot_failures = 0
        self._health.transition(HEALTHY, "recovered")
        # The flushed entries are durable now; let readers see them.
        self._publish_state()
        return {"recovered": self._health.state == HEALTHY,
                "flushed": flushed,
                "health_state": self._health.state}

    def try_recover(self) -> dict[str, Any]:
        """Attempt to leave a degraded state; never raises.

        Enqueues a recovery task for the engine thread (the only code
        allowed to touch the WAL), which flushes any pending entries
        and transitions back to ``healthy``.  Returns
        ``{"recovered": bool, "flushed": int, "health_state": str}``,
        with an ``"error"`` key when the underlying fault persists.
        Safe to call at any time — recovering a healthy server is a
        cheap no-op.  Also run on a timer when the server was built
        with ``recovery_probe_interval > 0``.
        """
        work = _Work("recover", [])
        try:
            self._submit(work)
        except ProtocolError as exc:
            return {"recovered": False, "flushed": 0,
                    "health_state": self._health.state,
                    "error": str(exc)}
        work.event.wait()
        if work.error is not None:
            return {"recovered": False, "flushed": 0,
                    "health_state": self._health.state,
                    "error": work.error[1]}
        return work.results

    # -- connections ---------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            with self._conn_lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="placement-conn", daemon=True)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            fh = conn.makefile("rb")
            while True:
                line = fh.readline(MAX_LINE_BYTES + 2)
                if not line:
                    return
                t0 = time.perf_counter()
                op, response = self._handle_line(line)
                try:
                    conn.sendall(encode_message(response))
                finally:
                    self._latency.observe(
                        op, time.perf_counter() - t0,
                        bool(response.get("ok")))
        except (OSError, ValueError):
            return  # peer vanished or socket closed under us
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_line(self, line: bytes) -> tuple[str, dict[str, Any]]:
        request_id: Any = None
        op = "invalid"
        try:
            request = decode_line(line)
            request_id = request.get("id")
            version = request.get("protocol")
            if version not in SUPPORTED_PROTOCOLS:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}",
                    code="unsupported-protocol")
            op_field = request.get("op")
            if not isinstance(op_field, str) or op_field not in OPS:
                raise ProtocolError(
                    f"unknown op {op_field!r}; this server answers "
                    f"{list(OPS)}")
            op = op_field
            body = self._dispatch(op, request)
        except ProtocolError as exc:
            error = error_body(exc.code, str(exc))
            if exc.code == "unsupported-protocol":
                error["supported"] = list(SUPPORTED_PROTOCOLS)
            elif exc.code in RETRYABLE_CODES:
                error["retry_after_ms"] = self.retry_after_ms
            return op, {"id": request_id, "ok": False, "error": error}
        except Exception as exc:  # pragma: no cover - defensive
            return op, {"id": request_id, "ok": False,
                        "error": error_body("internal", repr(exc))}
        body["id"] = request_id
        body["ok"] = True
        return op, body

    def _dispatch(self, op: str,
                  request: dict[str, Any]) -> dict[str, Any]:
        if op == "hello":
            return self._op_hello()
        if op == "health":
            return self._op_health()
        if op == "lookup":
            return self._op_lookup(request)
        if op == "stats":
            return self._op_stats()
        if op == "place":
            item = dict(request)
            item.setdefault("vertex", None)
            [result] = self._op_place([item],
                                      deadline=self._parse_deadline(request))
            return result
        if op == "place_batch":
            items = request.get("items")
            if not isinstance(items, list) or not items:
                raise ProtocolError(
                    "place_batch needs a non-empty 'items' list")
            results = self._op_place(items,
                                     deadline=self._parse_deadline(request))
            return {"results": results, "count": len(results)}
        if op == "snapshot":
            return self._op_snapshot()
        raise ProtocolError(f"unknown op {op!r}")  # pragma: no cover

    # -- endpoint implementations --------------------------------------
    def _op_hello(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "revision": PROTOCOL_REVISION,
            "supported": list(SUPPORTED_PROTOCOLS),
            "server": _SERVER_NAME,
            "version": __version__,
            "ops": list(OPS),
            "partitioner": self.partitioner.name,
            "config": self.config.to_dict(),
            "graph": {
                "name": self.graph.name,
                "num_vertices": int(self.graph.num_vertices),
                "num_edges": int(self.graph.num_edges),
            },
            "durable": self._checkpointer is not None,
        }

    def _op_health(self) -> dict[str, Any]:
        status = "draining" if self._draining.is_set() else "serving"
        admission = self._admission.stats()
        return {"status": status,
                "health_state": self._health.state,
                "health_transitions": int(self._health.transitions),
                "queue_depth": int(self._queue.qsize()),
                "shed_rate": float(admission["shed_rate"]),
                "uptime_seconds":
                    time.monotonic() - self._started_monotonic}

    def _op_lookup(self, request: dict[str, Any]) -> dict[str, Any]:
        vertex = self._check_vertex(request.get("vertex"))
        # Seqlock read view, never live engine state: the view only
        # ever holds placements whose group is fsynced and acked (or
        # durably flushed by recovery), so a lookup can never leak a
        # placement the client was not promised — and never blocks on
        # the engine.
        pid = self._read_view.read_route(vertex)
        return {"vertex": vertex,
                "pid": None if pid == UNASSIGNED else pid}

    def stats(self) -> dict[str, Any]:
        """The ``stats`` endpoint body, callable in-process (no socket).

        The CLI's drain summary and embedding tests use this; remote
        clients get the identical dict through ``client.stats()``.
        """
        return self._op_stats()

    def _op_stats(self) -> dict[str, Any]:
        # Lock-free: the seqlock view gives a consistent acked snapshot
        # of the mutable numbers; everything else is either immutable
        # (capacity, names) or monotonic counters safe to read racily.
        view = self._read_view
        summary = view.read_summary()
        # Every placement since boot went through the kernel, whatever
        # the engine mode.
        since_boot = summary["position"] - self._boot_position
        state = self._state
        stats: dict[str, Any] = {
            "partitioner": self.partitioner.name,
            "num_partitions": int(state.num_partitions),
            "position": summary["position"],
            "placements": summary["placements"],
            "capacity_overflows": summary["overflows"],
            "capacity": float(state.capacity),
            "loads": summary["loads"],
            "edge_loads": summary["edge_loads"],
            "queue_depth": int(self._queue.qsize()),
            "queue_capacity": int(self._queue.maxsize),
            "groups_processed": int(self._groups_processed),
            "engine_seconds": float(self._elapsed),
            "uptime_seconds":
                time.monotonic() - self._started_monotonic,
            "arrival_ordered": bool(self._arrival_ordered),
            "fast_path": {
                "active": True,
                "cursor": int(self._next_expected),
                "fused_placements": since_boot,
                "record_placements": 0,
                "fast_batches": int(self._kernel_requests),
            },
            "latency": self._latency.summary(),
            "health": self._health.snapshot(),
            "admission": self._admission.stats(),
            "deadline_expired_in_queue": int(self._deadline_expired),
            # Additive in revision 1.2: multicore-engine shape + the
            # seqlock read path's own counters.
            "engine": {
                "mode": ("sharded" if self._pool is not None
                         else "grouped" if self._parallelism > 1
                         else "sequential"),
                "parallelism": int(self._parallelism),
                "processes": int(self._processes),
                "chunks_scored": int(self._chunks_scored),
                "pool_chunks": int(self._pool_chunks),
                "m_aligned": bool(self._m_aligned),
                "worker_restarts":
                    int(self._pool.restarts) if self._pool is not None
                    else 0,
                "wal_pipeline": self._committer is not None,
            },
            "read_view": {
                "seq": int(self._read_view.seq),
                "retries": int(self._read_view.retries),
            },
        }
        if self._checkpointer is not None:
            stats["durability"] = {
                "snapshots_written":
                    int(self._checkpointer.snapshots_written),
                "last_snapshot_position":
                    int(self._last_snapshot_position),
                "wal_appended": int(self._wal.appended),
                "wal_segment": self._wal.active_path.name,
                "wal_pending": len(self._pending_entries),
                "snapshot_failures": int(self._snapshot_failures),
                "wal_pipelined_groups":
                    int(self._committer.committed_groups)
                    if self._committer is not None else 0,
                "wal_inflight_requests":
                    int(self._committer.inflight_requests)
                    if self._committer is not None else 0,
            }
        if self._resumed_from is not None:
            stats["resumed_from"] = self._resumed_from
        return stats

    def _check_vertex(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                f"vertex must be an integer, got {value!r}")
        if not 0 <= value < self.graph.num_vertices:
            raise ProtocolError(
                f"vertex {value} is outside this graph's id range "
                f"[0, {self.graph.num_vertices})",
                code="unknown-vertex")
        return value

    def _parse_placement(self, item: Any) -> tuple[int, list[int] | None]:
        if isinstance(item, dict):
            vertex = self._check_vertex(item.get("vertex"))
            neighbors = item.get("neighbors")
        else:
            vertex = self._check_vertex(item)
            neighbors = None
        if neighbors is None:
            return vertex, None
        if not isinstance(neighbors, list):
            raise ProtocolError(
                f"neighbors must be a list of vertex ids or null, got "
                f"{type(neighbors).__name__}")
        return vertex, [self._check_vertex(u) for u in neighbors]

    def _parse_deadline(self, request: dict[str, Any]) -> float | None:
        """The request's ``deadline_ms`` budget as an absolute monotonic
        deadline (revision 1.1; absent = best-effort, the 1.0 behavior)."""
        value = request.get("deadline_ms")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value < 0:
            raise ProtocolError(
                f"deadline_ms must be a non-negative number, got "
                f"{value!r}")
        return time.monotonic() + float(value) / 1000.0

    def _op_place(self, items: list[Any], *,
                  deadline: float | None = None) -> list[dict[str, Any]]:
        placements = [self._parse_placement(item) for item in items]
        work = _Work("place", placements, deadline=deadline)
        self._submit(work)
        work.event.wait()
        if work.error is not None:
            raise ProtocolError(work.error[1], code=work.error[0])
        return work.results

    def _op_snapshot(self) -> dict[str, Any]:
        work = _Work("snapshot", [])
        self._submit(work)
        work.event.wait()
        if work.error is not None:
            raise ProtocolError(work.error[1], code=work.error[0])
        return work.results

    def _submit(self, work: _Work) -> None:
        if self._draining.is_set():
            raise ProtocolError(
                "server is draining; no new placements accepted",
                code="draining")
        if work.kind == "recover":
            # Recovery must reach the engine even when admission would
            # shed everything else; only the hard queue bound applies.
            try:
                self._queue.put_nowait(work)
            except queue.Full:
                raise ProtocolError(
                    f"engine queue is full ({self._queue.maxsize} "
                    f"requests); retry shortly",
                    code="backpressure") from None
            return
        if not self._health.allows_mutation:
            self._admission.count_shed("read_only")
            raise ProtocolError(
                f"server is {self._health.state}; mutations are rejected "
                f"(lookups/stats/health still served)",
                code="read_only")
        if work.kind == "place":
            deadline_remaining = None
            if work.deadline is not None:
                deadline_remaining = work.deadline - time.monotonic()
            # Pipelined commits hold acks beyond the queue: requests
            # riding an in-flight fsync are invisible to qsize() but
            # very much ahead of this one, so the lag estimate counts
            # them too.
            inflight = self._committer.inflight_requests \
                if self._committer is not None else 0
            decision = self._admission.admit(
                self._queue.qsize(),
                deadline_remaining=deadline_remaining,
                inflight=inflight)
            if decision is not None:
                self._admission.count_shed(decision.code)
                raise ProtocolError(decision.message, code=decision.code)
        try:
            self._queue.put_nowait(work)
        except queue.Full:
            if work.kind == "place":
                self._admission.count_shed("backpressure")
            raise ProtocolError(
                f"engine queue is full "
                f"({self._queue.maxsize} requests); retry shortly",
                code="backpressure") from None
        if work.kind == "place":
            self._admission.count_accept()

    # -- lifecycle -----------------------------------------------------
    def request_shutdown(self) -> None:
        """Signal-handler-safe shutdown trigger; :meth:`wait` returns."""
        self._shutdown_requested.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`request_shutdown` (the CLI's foreground
        loop); returns True when shutdown was requested."""
        return self._shutdown_requested.wait(timeout)

    def close(self, *, timeout: float = 30.0) -> None:
        """Graceful drain: stop intake, finish the queue, snapshot, stop.

        Idempotent; also invoked by ``with PlacementService.start(...)``
        blocks and the CLI's SIGTERM handler.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._draining.set()
        self._health.transition(DRAINING, "shutdown")
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        engine_alive = any(t.name == "placement-engine" and t.is_alive()
                           for t in self._threads)
        if engine_alive:
            self._queue.put(_STOP)
            for thread in self._threads:
                if thread.name == "placement-engine":
                    thread.join(timeout)
        if self._committer is not None:
            # Engine is drained; flush the committer's in-flight groups
            # (their acks release) before touching the WAL ourselves.
            self._committer.stop()
        if self._wal is not None and self._pending_entries:
            # Last chance to make unflushed entries durable; best-effort
            # only — the requests they belong to were already failed, so
            # a still-broken log loses nothing that was promised.
            try:
                self._wal.append_batch(list(self._pending_entries))
                self._pending_entries.clear()
            except Exception:
                pass
        if (self._checkpointer is not None
                and self._position > self._last_snapshot_position):
            try:
                with self._state_lock:
                    self._snapshot_now()
            except Exception:
                # A failing disk must not turn graceful shutdown into a
                # crash; durable state is whatever already reached disk.
                pass
        if self._wal is not None:
            self._wal.close()
        self._teardown_pool()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._shutdown_requested.set()

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
