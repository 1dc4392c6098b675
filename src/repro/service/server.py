"""The long-lived placement server (partition-as-a-service).

:class:`PlacementService` turns the repo's batch machinery into an
online system: it loads a graph once (through the binary CSR cache when
given a path), holds a live partitioner + :class:`PartitionState`, and
answers the version-1 wire protocol (:mod:`repro.service.protocol`) over
TCP for as long as the process lives.

Architecture — one engine, many connections, no engine thread::

    conn thread ─> bounded queue ─> [state lock] ─> [commit lock] ─> send
    (parse,         (backpressure    (drain, apply    (WAL, publish,
     validate)       when full)       kernel.commit)   ack)

* Every connection gets a thread that parses and validates requests.
  Read-only ops (``hello``, ``health``, ``lookup``, ``stats``) are
  answered right there.  A mutating op (``place``, ``place_batch``,
  ``snapshot``) is admitted to the queue, and then the same thread
  serves as the engine: it takes the state lock and drains queued
  requests — its own and other clients' — which it applies and commits.
  A thread whose request another one already drained just waits for its
  answer.  The state-lock holder is the only code that touches
  partitioner state, so there are no torn placements, and a request
  costs no thread hand-off.
* The queue is **bounded**: when it is full the connection answers
  ``code: "backpressure"`` with a ``retry_after_ms`` hint instead of
  buffering without limit.  Slow consumers shed load explicitly.
* The state-lock holder drains up to ``batch_max`` queued requests and
  applies their placements as one group, through one apply loop.  Every
  placement — batched or single, in id order or not, with the graph's
  adjacency or an explicit neighbor list, from any number of clients —
  is placed record by record, in arrival order, by ``kernel.commit`` of
  the one :class:`~repro.partitioning.base.PlacementKernel` that
  ``partition()`` runs, so each placement scores against every earlier
  one.  The kernel is built once, from live state, after boot or WAL
  replay; the state-lock holder is the only committer, which is what
  keeps its maintained images exact.
* Durability is snapshot + WAL (:mod:`repro.service.wal`): a group is
  applied, appended to the fsynced placement log, and only then
  acked.  Periodic snapshots (the recovery layer's
  :class:`~repro.recovery.checkpoint.Checkpointer`) bound replay time;
  the WAL rotates at each snapshot.  ``resume_from`` at boot restores
  the newest snapshot and replays the WAL tail **through the
  partitioner** (re-scoring each logged record and checking the choice
  matches the logged pid), so a SIGKILLed server comes back answering
  ``lookup`` identically for every placement it ever acknowledged.
* Graceful shutdown (:meth:`close`, wired to SIGTERM by the CLI) stops
  accepting work, lets the group in hand finish and fails what is
  still queued with ``draining``, writes a final snapshot, and closes
  connections — in that order.

Resilience (the :mod:`repro.resilience` layer, revision 1.1 of the
protocol):

* **Admission control** — an
  :class:`~repro.resilience.admission.AdmissionController` sheds
  ``place`` traffic with ``overloaded`` *before* the queue saturates
  (queue-depth watermark, engine-lag EWMA) and rejects requests whose
  ``deadline_ms`` budget is already unmeetable with
  ``deadline_exceeded``; deadlines are re-checked at dequeue so a
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

Read path and WAL pipeline (revision 1.2 of the protocol):

* **Lock-free reads** — ``lookup``/``stats``/``health`` are answered
  by connection threads against a seqlock-versioned
  :class:`_RouteReadView` published *after* each group's fsync and
  *before* its acks release, so a read can never observe a placement
  that was not durably acked, and never blocks on the engine.
* **Pipelined WAL** — hand-over-hand locking overlaps one group's
  fsync with the next group's scoring (double-buffered group commit)
  without a thread: the applying thread takes the commit lock *before*
  it releases the state lock, then appends, publishes and acks outside
  the state lock while the next thread applies the next group.  Commit
  lock order is state lock order, so WAL order is apply order.  Acks
  still release only after fsync; a failed append parks the entries and
  degrades to read-only exactly like the synchronous path.  A group
  that carries a snapshot or recovery, or is followed by a due
  periodic snapshot, commits before the state lock is released, so a
  snapshot never holds an applied group that is not yet logged.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from .. import __version__
from ..graph.digraph import DiGraph
from ..graph.stream import ArrayStream
from ..partitioning.assignment import UNASSIGNED
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
    """One queued engine task: placements, a snapshot, or a recovery.

    ``latch`` is held from construction until :meth:`resolve` or
    :meth:`fail` releases it, exactly once: a second answer raises."""

    __slots__ = ("kind", "placements", "latch", "results", "error",
                 "deadline")

    def __init__(self, kind: str,
                 placements: list[tuple[int, list[int] | None]],
                 deadline: float | None = None) -> None:
        self.kind = kind
        self.placements = placements
        self.latch = threading.Lock()
        self.latch.acquire()
        self.results: Any = None
        self.error: tuple[str, str] | None = None
        #: Absolute ``time.monotonic()`` deadline from the request's
        #: ``deadline_ms`` budget; the engine re-checks it at dequeue.
        self.deadline = deadline

    def resolve(self, results: Any) -> None:
        self.results = results
        self.latch.release()

    def fail(self, code: str, message: str) -> None:
        self.error = (code, message)
        self.latch.release()


class _RouteReadView:
    """Seqlock-versioned, acked-only snapshot of the route table.

    One writer at a time (serialized by the service's commit lock)
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
        # Indexing a memoryview reads and writes Python ints directly.
        self._route = memoryview(self.route)
        # Never written once published: a publish swaps in new arrays.
        self.loads = np.zeros(num_partitions, dtype=np.int64)
        self.edge_loads = np.zeros(num_partitions, dtype=np.int64)
        self.position = 0
        self.placements = 0
        self.overflows = 0
        self.retries = 0  # reader-side seqlock retries (approximate)
        self.hold_seconds = 0.0

    # -- writer side (publish lock held by the service) ----------------
    def publish(self, entries, *, loads, edge_loads, position,
                placements, overflows) -> None:
        """Publish one durable group's WAL entries and the copies that
        :meth:`PlacementService._ack_scalars` made for it, adopted."""
        self.seq += 1
        if self.hold_seconds:
            time.sleep(self.hold_seconds)
        route = self._route
        for _seq, vertex, _neighbors, pid in entries:
            route[vertex] = pid
        self.loads = loads
        self.edge_loads = edge_loads
        self.position = position
        self.placements = placements
        self.overflows = overflows
        self.seq += 1

    def publish_full(self, route: np.ndarray, *, loads, edge_loads,
                     position, placements, overflows) -> None:
        """Wholesale publish (boot/resume, before any reader exists)."""
        self.seq += 1
        if self.hold_seconds:
            time.sleep(self.hold_seconds)
        np.copyto(self.route, route)
        self.loads = np.array(loads)
        self.edge_loads = np.array(edge_loads)
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
            pid = self._route[vertex]
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
    """One applied group on its way to the log: WAL lines, acks, and the
    acked-state scalars the read view publishes."""

    __slots__ = ("entries", "applied", "scalars", "requests")

    def __init__(self, entries, applied, scalars, requests) -> None:
        self.entries = entries
        self.applied = applied
        self.scalars = scalars
        #: Requests (works) riding this commit — the admission
        #: controller counts them as in-flight pipeline depth.
        self.requests = requests


def _resolve_graph(graph: Any) -> DiGraph:
    """Accept a ready graph or a path (loaded via the CSR cache)."""
    if isinstance(graph, DiGraph):
        return graph
    if isinstance(graph, (str, Path)):
        from ..ingest.cache import load_or_parse
        return load_or_parse(Path(graph), cache=True)
    raise TypeError(
        f"graph must be a DiGraph or a path, got {type(graph).__name__}")


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
                 wal_factory: Any = None) -> None:
        if config is None:
            config = PartitionConfig()
        elif isinstance(config, dict):
            config = PartitionConfig.from_dict(config)
        if not resolve(config.method).is_streaming:
            raise ValueError(
                f"the placement service needs a streaming method; "
                f"{config.method!r} is offline")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.graph = _resolve_graph(graph)
        self._num_vertices = self.graph.num_vertices
        self.config = config
        self.instrumentation = instrumentation
        self.throttle_seconds = float(throttle_seconds)
        self.retry_after_ms = int(retry_after_ms)
        self._host = host
        self._port = port
        self._batch_max = batch_max
        # Only the state-lock holder pops; the depth check and the
        # append share ``_queue_lock``, so the bound is exact.
        self._queue: deque[_Work] = deque()
        self._queue_depth = queue_depth
        self._queue_lock = threading.Lock()
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
        self._stream = ArrayStream.from_graph(self.graph)
        # The state-lock holder is the engine: it alone drains the queue,
        # applies and snapshots.  The commit-lock holder alone appends to
        # the WAL, publishes the read view and acks.  A thread takes the
        # commit lock only while holding the state lock (see _run), so
        # commits run in apply order.
        self._state_lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._elapsed = 0.0  # cumulative engine apply time (snapshot PT)
        self._position = 0   # acked placements == WAL sequence head
        self._kernel_requests = 0
        self._groups_processed = 0
        # Whether every placement so far arrived in exact id order (the
        # paper's streaming arrival model); bench parity checks read it.
        self._arrival_ordered = True
        self._next_expected = 0

        if resume_from is not None:
            self._resume(Path(resume_from))
        else:
            self._state = partitioner.make_state(self._stream)
            partitioner._setup(self._stream, self._state)
            self._resumed_from = None
        #: Placements made before this process booted (snapshot + WAL
        #: replay); everything past it went through this engine.
        self._boot_position = self._position

        # The engine's one way to place a vertex: built from live
        # (possibly replayed) state, whose route table, tallies and
        # heuristic lanes it captures by reference.
        self._kernel = PlacementKernel(partitioner, self._state)
        # Indexing a memoryview gives a Python int, not a numpy scalar:
        # the apply loop's route checks and CSR bounds read these.
        self._route_view = memoryview(self._state.route)
        self._indptr = memoryview(self._stream.indptr)
        self._indices = self._stream.indices

        # Lock-free read path: connection threads answer lookup/stats
        # from this seqlock view, never from live engine state.
        self._read_view = _RouteReadView(self.graph.num_vertices,
                                         partitioner.num_partitions)
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
        # Pipelined whenever there is a WAL: each group's fsync overlaps
        # the next group's scoring.
        self._wal_pipeline = self._wal is not None
        # Groups acked outside the state lock, and the requests of the
        # one being committed there now (applied, not yet acked).
        self._pipelined_groups = 0
        self._inflight_requests = 0
        # Set by a crash teardown: the commit stage drops (never acks) a
        # group it has not appended yet.
        self._crashed = False

        # Set once by close() or a crash teardown; nobody waits on it.
        self._draining = False
        self._shutdown_requested = threading.Event()
        self._closed = False
        self._close_lock = threading.Lock()
        self._listener: socket.socket | None = None
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
        """Bind the listener and start the accept thread (there is no
        engine thread: see :meth:`_run`)."""
        self._listener = socket.create_server(
            (self._host, self._port), reuse_port=False)
        self._listener.listen(64)
        threading.Thread(target=self._accept_loop, name="placement-accept",
                         daemon=True).start()
        if self.recovery_probe_interval > 0:
            threading.Thread(target=self._recovery_probe_loop,
                             name="placement-recovery-probe",
                             daemon=True).start()

    def _recovery_probe_loop(self) -> None:
        """Periodically attempt recovery while the server is read-only."""
        while not self._shutdown_requested.wait(
                self.recovery_probe_interval):
            if self._draining:
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
        serving on would hand out wrong ``lookup`` answers.  The
        engine's own kernel is built afterwards, from the replayed
        state.
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
        commit = PlacementKernel(self.partitioner, self._state).commit
        replayed = 0
        for entry in replay_entries(directory,
                                    from_position=self._position):
            if entry.neighbors is None:
                neighbors = self.graph.out_neighbors(entry.vertex)
            else:
                neighbors = np.asarray(entry.neighbors, dtype=np.int64)
            pid = commit(entry.vertex, neighbors)
            if pid != entry.pid:
                raise ValueError(
                    f"WAL replay diverged at seq {entry.seq}: vertex "
                    f"{entry.vertex} re-places to {pid}, log says "
                    f"{entry.pid}")
            self._position += 1
            replayed += 1
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
    def _run(self, work: _Work) -> None:
        """Submit ``work``, then serve as the engine until it is answered.

        There is no engine thread.  The submitting thread takes the
        state lock and drains up to ``batch_max`` queued works — its own
        and other clients' — into :meth:`_process_group`.  A pipelined
        group comes back with the commit lock held (it was taken before
        the state lock was released) and is committed here, outside the
        state lock, while the next thread applies the next group.  A
        thread whose work another thread drained finds the queue empty
        and waits for the answer that thread's commit releases.
        """
        self._submit(work)
        latch = work.latch
        while latch.locked():
            with self._state_lock:
                group = self._drain()
                if not group:
                    break
                commit = self._process_group_safely(group)
            if commit is not None:
                try:
                    if self._commit_durably(commit):
                        self._pipelined_groups += 1
                finally:
                    self._inflight_requests = 0
                    self._commit_lock.release()
        latch.acquire()

    def _drain(self) -> list[_Work]:
        """Take up to ``batch_max`` queued works (state lock held).

        Once the server is draining nothing more is applied: every
        queued work fails ``draining`` instead and none is returned, so
        no submitter is left waiting.
        """
        draining = self._draining
        queue = self._queue
        group: list[_Work] = []
        while queue and (draining or len(group) < self._batch_max):
            group.append(queue.popleft())
        if not draining:
            return group
        for work in group:
            work.fail("draining", "server is draining; placement not applied")
        return []

    def _process_group_safely(self, group: list[_Work]) -> _Commit | None:
        """Run one group; an unexpected engine error degrades, not dies.

        :meth:`_process_group` handles every *anticipated* failure
        (WAL, snapshot, per-placement errors) itself; anything that
        still escapes would reach only the request of the thread that
        drained the group, stranding the others in it.  Instead: fail
        the group's unanswered works, drop to ``read_only``, keep
        serving reads.  A work the group already answered keeps its
        answer: its latch is released, and a second release would raise.
        Placements the group committed in memory but had not yet handed
        to the log were parked by :meth:`_process_group`, so
        :meth:`try_recover` flushes them before the server accepts
        mutations again: a retry's ``cached`` answer is then backed by
        a WAL line.
        """
        try:
            return self._process_group(group)
        except Exception as exc:
            for work in group:
                if work.latch.locked():
                    work.fail("internal", f"engine error: {exc}")
            self._health.transition(READ_ONLY, "engine_error",
                                    detail=repr(exc))
            return None

    def _process_group(self, group: list[_Work]) -> _Commit | None:
        """Apply one drained group (state lock held), then commit it.

        Place requests in the group are stable-sorted by their first
        vertex id before applying.  Commit order within a group is the
        server's to choose (nothing has been acked yet), and sorting
        repairs the id-order inversions that concurrent clients
        naturally produce — id order is what the sliding-window Γ store
        and SPNL's Range locality assume.  All WAL lines for the group
        go down in one fsync (group commit); acks release after.

        The commit lock is taken before anything else is committed:
        once it is held, every earlier group's commit has finished.  A
        pipelined group is returned with the lock still held, for the
        caller to commit outside the state lock.  Otherwise the group's
        commit, its snapshot and recovery works and a due periodic
        snapshot run here, in that order, and ``None`` is returned: a
        snapshot or WAL rotation must never see an applied group that
        is not yet appended.
        """
        t0 = time.perf_counter()
        if self.throttle_seconds:
            time.sleep(self.throttle_seconds)
        place_works = [w for w in group if w.kind == "place"]
        other_works = [w for w in group if w.kind != "place"]
        if len(place_works) > 1:
            place_works.sort(
                key=lambda w: w.placements[0][0] if w.placements else -1)
        applied, entries, placements, ok = self._apply_group(place_works)
        # The entries live in memory only until the commit routine takes
        # them (it appends or parks them).  An error before that parks
        # them here; any error releases the commit lock if it is held.
        logged = not entries or self._wal is None
        locked = False
        try:
            commit = None
            if applied or entries:
                commit = _Commit(entries, applied, self._ack_scalars(),
                                 len(applied))
            self._commit_lock.acquire()
            locked = True
            if (commit is not None and self._wal_pipeline
                    and not other_works and not self._snapshot_due()):
                self._inflight_requests = commit.requests
            else:
                logged = True
                if commit is not None and not self._commit_durably(commit):
                    ok = False
                commit = None
                ok = self._run_maintenance(other_works) and ok
                locked = False
                self._commit_lock.release()
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
                    "queue_depth": len(self._queue),
                    "elapsed_seconds": elapsed,
                    "ok": ok,
                    "fused": len(entries),
                    "shed": int(shed_delta),
                })
        except BaseException:
            if not logged:
                if not locked:
                    # Behind any earlier group's commit: parked lines
                    # stay in sequence order.
                    self._commit_lock.acquire()
                    locked = True
                self._pending_entries.extend(entries)
            if locked:
                self._commit_lock.release()
            raise
        return commit

    def _snapshot_due(self) -> bool:
        """Whether a periodic snapshot is owed (state lock held)."""
        return (self._checkpointer is not None
                and self._health.allows_mutation
                and self._position - self._last_snapshot_position
                >= self._checkpointer.config.every)

    def _run_maintenance(self, other_works: list[_Work]) -> bool:
        """Run a group's snapshot and recovery works, then a due
        periodic snapshot (both locks held, the group committed);
        returns whether every work succeeded.  After a crash teardown
        nothing more is written: the group's commit was dropped, and a
        snapshot now would hold its unlogged placements."""
        if self._crashed:
            for work in other_works:
                work.fail("draining", "server stopped; nothing written")
            return False
        ok = True
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
        if self._snapshot_due():
            try:
                self._snapshot_now()
                self._note_snapshot_success()
            except Exception as exc:
                self._note_snapshot_failure(exc)
        return ok

    def _apply_group(
            self, place_works: list[_Work]
    ) -> tuple[list[tuple[_Work, list[dict[str, Any]]]],
               list[WalEntry], int, bool]:
        """Apply the drained place requests: the one apply loop.

        Every live placement goes, in arrival order, through
        ``kernel.commit`` — scored against every placement committed
        before it, exactly as the one-pass ``partition()`` does.
        ``engine_seconds`` times each request's pass through this loop:
        its kernel steps plus each record's answer and WAL entry.
        Idempotent: an already-placed vertex answers its existing pid
        with ``cached: true`` and writes no WAL line.

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
            if work.deadline is not None and time.monotonic() >= work.deadline:
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
            count = len(work.placements)
            placements += count
            live.append((work, [None] * count))
        route, indptr, indices = \
            self._route_view, self._indptr, self._indices
        commit = self._kernel.commit
        clock = time.perf_counter
        # The NamedTuple constructor is a Python function;
        # ``tuple.__new__`` builds the same ``WalEntry`` in C.
        new_entry, append_entry = tuple.__new__, entries.append
        # The sequence head and the arrival cursor live in locals for
        # the loop; the ``finally`` writes them back, so ``_position``
        # counts exactly the placements committed, also when one raises.
        position = self._position
        ordered, expected = self._arrival_ordered, self._next_expected
        error: Exception | None = None
        try:
            for work, results in live:
                self._kernel_requests += 1
                t0 = clock()
                for slot, (vertex, neighbors) in enumerate(work.placements):
                    if route[vertex] != UNASSIGNED:  # idempotent answer
                        results[slot] = {"vertex": vertex,
                                         "pid": route[vertex], "cached": True}
                        continue
                    if neighbors is None:
                        nbrs = indices[indptr[vertex]:indptr[vertex + 1]]
                    else:
                        nbrs = np.asarray(neighbors, dtype=np.int64)
                    pid = commit(vertex, nbrs)
                    results[slot] = {"vertex": vertex, "pid": pid,
                                     "cached": False}
                    append_entry(new_entry(
                        WalEntry, (position, vertex, neighbors, pid)))
                    position += 1
                    if ordered:
                        if vertex == expected:
                            expected += 1
                        else:
                            ordered = False
                self._elapsed += clock() - t0
        except Exception as exc:
            error = exc
        finally:
            self._position = position
            self._arrival_ordered, self._next_expected = ordered, expected
        for work, results in live:
            if None in results:
                ok = False
                work.fail("internal", f"placement failed: {error}")
            else:
                applied.append((work, results))
        return applied, entries, placements, ok

    def _ack_scalars(self) -> dict[str, Any]:
        """Copy the acked-state scalars for a read-view publish.

        Taken under the state lock at commit-capture time; copies, not
        views — the engine keeps mutating the live arrays while a
        pipelined commit is in flight.  The read view adopts these
        copies as they are (:meth:`_RouteReadView.publish`).
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

        The one ack routine, run by the commit-lock holder: outside the
        state lock when the log is pipelined, inside it otherwise.
        Append + fsync, only then publish the read view, only then
        release the acks; returns whether the group was acked.  After a
        crash teardown nothing more is appended: the group is dropped,
        its requests failed, never acked.

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
        if self._crashed:
            for work, _results in commit.applied:
                work.fail("draining",
                          "server stopped before the placement was durable")
            return False
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
            self._read_view.publish(entries, **commit.scalars)
        for work, results in commit.applied:
            work.resolve(results)
        return True

    def _publish_state(self) -> None:
        """Wholesale read-view publish from live state (boot, or
        recovery with both locks held)."""
        state = self._state
        self._read_view.publish_full(
            state.route,
            loads=state.vertex_counts,
            edge_loads=state.edge_counts,
            position=self._position,
            placements=state.placed_vertices,
            overflows=state.capacity_overflows)

    def _snapshot_now(self) -> dict[str, Any]:
        """Write a snapshot + rotate/prune the WAL.

        State lock and commit lock held, and every applied group
        committed: a snapshot at position P with lines below P not yet
        appended would strand those lines in the *new* segment, breaking
        prune/replay, and would hold placements nobody acked.
        """
        if self._checkpointer is None:
            raise ProtocolError(
                "server is running without a snapshot_dir; nothing to "
                "snapshot")
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
        """Engine half of :meth:`try_recover` (both locks held).

        Flush the non-durable pending entries first: until they are on
        disk, the in-memory route table is ahead of the log and a crash
        would break ``resume_from`` parity for any later ack.  Only a
        complete flush earns the transition back to ``healthy``.
        """
        flushed = 0
        if self._wal is not None and self._pending_entries:
            self._wal.append_batch(list(self._pending_entries))
            flushed = len(self._pending_entries)
            self._pending_entries.clear()
        self._snapshot_failures = 0
        self._health.transition(HEALTHY, "recovered")
        # The flushed entries are durable now; let readers see them.
        self._publish_state()
        return {"recovered": self._health.state == HEALTHY,
                "flushed": flushed,
                "health_state": self._health.state}

    def try_recover(self) -> dict[str, Any]:
        """Attempt to leave a degraded state; never raises.

        Submits a recovery task and runs it as the engine (under the
        state and commit locks, the only code allowed to touch the WAL):
        it flushes any pending entries and transitions back to
        ``healthy``.  Returns
        ``{"recovered": bool, "flushed": int, "health_state": str}``,
        with an ``"error"`` key when the underlying fault persists.
        Safe to call at any time — recovering a healthy server is a
        cheap no-op.  Also run on a timer when the server was built
        with ``recovery_probe_interval > 0``.
        """
        work = _Work("recover", [])
        try:
            self._run(work)
        except ProtocolError as exc:
            return {"recovered": False, "flushed": 0,
                    "health_state": self._health.state,
                    "error": str(exc)}
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
                payload = encode_message(response)
                # Stop before the send: it can hand the CPU to the
                # client, whose turn is not server time.
                self._latency.observe(op, time.perf_counter() - t0,
                                      bool(response.get("ok")))
                conn.sendall(payload)
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
            if op_field not in OPS:
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
        if op == "place":
            # The request is its own item: ``vertex`` and ``neighbors``.
            [result] = self._op_place([request],
                                      deadline=self._parse_deadline(request))
            return result
        if op == "lookup":
            return self._op_lookup(request)
        if op == "place_batch":
            items = request.get("items")
            if not isinstance(items, list) or not items:
                raise ProtocolError(
                    "place_batch needs a non-empty 'items' list")
            results = self._op_place(items,
                                     deadline=self._parse_deadline(request))
            return {"results": results, "count": len(results)}
        if op == "hello":
            return self._op_hello()
        if op == "health":
            return self._op_health()
        if op == "stats":
            return self._op_stats()
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
        status = "draining" if self._draining else "serving"
        admission = self._admission.stats()
        return {"status": status,
                "health_state": self._health.state,
                "health_transitions": int(self._health.transitions),
                "queue_depth": len(self._queue),
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
            "queue_depth": len(self._queue),
            "queue_capacity": self._queue_depth,
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
            # Additive in revision 1.2: the engine's shape + the seqlock
            # read path's own counters.  Every engine key stays, since
            # protocol 1 removes no field, and reads as the one engine.
            "engine": {
                "mode": "sequential",
                "parallelism": 1,
                "processes": 1,
                "chunks_scored": 0,
                "pool_chunks": 0,
                "m_aligned": True,
                "worker_restarts": 0,
                "wal_pipeline": self._wal_pipeline,
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
                "wal_pipelined_groups": int(self._pipelined_groups),
                "wal_inflight_requests": int(self._inflight_requests),
            }
        if self._resumed_from is not None:
            stats["resumed_from"] = self._resumed_from
        return stats

    def _check_vertex(self, value: Any) -> int:
        # Exactly ``int``: JSON decodes ids to int, and ``true`` to bool.
        if type(value) is not int:
            raise ProtocolError(
                f"vertex must be an integer, got {value!r}")
        if not 0 <= value < self._num_vertices:
            raise ProtocolError(
                f"vertex {value} is outside this graph's id range "
                f"[0, {self._num_vertices})",
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
        self._run(work)
        if work.error is not None:
            raise ProtocolError(work.error[1], code=work.error[0])
        return work.results

    def _op_snapshot(self) -> dict[str, Any]:
        work = _Work("snapshot", [])
        self._run(work)
        if work.error is not None:
            raise ProtocolError(work.error[1], code=work.error[0])
        return work.results

    def _submit(self, work: _Work) -> None:
        if self._draining:
            raise ProtocolError(
                "server is draining; no new placements accepted",
                code="draining")
        kind = work.kind
        # Recovery must reach the engine even when admission would shed
        # everything else; only the hard queue bound applies to it.
        if kind != "recover" and not self._health.allows_mutation:
            self._admission.count_shed("read_only")
            raise ProtocolError(
                f"server is {self._health.state}; mutations are rejected "
                f"(lookups/stats/health still served)",
                code="read_only")
        if kind == "place":
            deadline_remaining = None
            if work.deadline is not None:
                deadline_remaining = work.deadline - time.monotonic()
            # A pipelined commit holds acks beyond the queue: requests
            # riding an in-flight fsync are invisible to the queue depth
            # but very much ahead of this one, so the lag estimate
            # counts them too.
            decision = self._admission.admit(
                len(self._queue),
                deadline_remaining=deadline_remaining,
                inflight=self._inflight_requests)
            if decision is not None:
                self._admission.count_shed(decision.code)
                raise ProtocolError(decision.message, code=decision.code)
        queue = self._queue
        with self._queue_lock:
            full = len(queue) >= self._queue_depth
            if not full:
                queue.append(work)
        if full:
            if kind == "place":
                self._admission.count_shed("backpressure")
            raise ProtocolError(
                f"engine queue is full "
                f"({self._queue_depth} requests); retry shortly",
                code="backpressure")
        if kind == "place":
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
        """Graceful drain: stop intake, answer the queue, snapshot, stop.

        Intake stops first; a request still queued, or arriving later,
        fails ``draining``.  The group in hand finishes, its commit
        included; then parked entries are flushed and a final snapshot
        is written.  Idempotent; also invoked by ``with
        PlacementService.start(...)`` blocks and the CLI's SIGTERM
        handler.  ``timeout`` is accepted for compatibility; there is no
        engine thread left to join.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._draining = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._state_lock, self._commit_lock:
            self._health.transition(DRAINING, "shutdown")
            self._drain()  # fails every queued work: draining is set
            if self._wal is not None and self._pending_entries:
                # Last chance to make unflushed entries durable;
                # best-effort only — the requests they belong to were
                # already failed, so a still-broken log loses nothing
                # that was promised.
                try:
                    self._wal.append_batch(list(self._pending_entries))
                    self._pending_entries.clear()
                except Exception:
                    pass
            if (self._checkpointer is not None
                    and self._position > self._last_snapshot_position):
                try:
                    self._snapshot_now()
                except Exception:
                    # A failing disk must not turn graceful shutdown
                    # into a crash; durable state is whatever already
                    # reached disk.
                    pass
            if self._wal is not None:
                self._wal.close()
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
