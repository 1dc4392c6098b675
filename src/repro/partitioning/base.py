"""Streaming-partitioner framework.

The paper's streaming methods (LDG, FENNEL, SPN, SPNL) all share the same
skeleton: scan adjacency records once; for each record compute a K-vector of
placement scores from the *local view* (the record plus the distribution of
already-placed vertices); place the vertex at the argmax subject to a
capacity constraint ``C = δ·|G|/K`` (Algorithm 1, line 4); and update the
per-partition state.  :class:`StreamingPartitioner` implements that skeleton
once, and each concrete heuristic only supplies its scoring rule plus
optional state hooks.

Capacity & tie-breaking policy (shared by all heuristics so comparisons are
apples-to-apples):

* a partition at or above capacity is ineligible (score masked to ``-inf``);
* among the top-scoring eligible partitions, the least-loaded wins, then
  the lowest partition id — fully deterministic;
* if every partition is full (possible under tight ``δ`` with rounding),
  the globally least-loaded one is used as a safety valve.
"""

from __future__ import annotations

import enum
import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable

import numpy as np

from ..graph.digraph import AdjacencyRecord
from ..graph.stream import ArrayStream, VertexStream, as_array_stream
from .assignment import UNASSIGNED, PartitionAssignment

__all__ = ["BalanceMode", "CapacityOverflowError", "PartitionState",
           "StreamingResult", "StreamingPartitioner", "FastKernel",
           "PlacementKernel", "make_weight_updater", "make_shifted_counter"]

#: Valid values for the all-partitions-full overflow policy.
OVERFLOW_POLICIES = ("least-loaded", "strict")

#: Records whose CSR bounds :meth:`PlacementKernel.run` converts at once.
_CSR_CHUNK = 1024


class CapacityOverflowError(RuntimeError):
    """Raised under ``overflow="strict"`` when every partition is full.

    The default policy (``"least-loaded"``) silently places the vertex
    on the globally least-loaded partition and counts the event in
    ``capacity_overflows``; strict mode makes the δ constraint a hard
    guarantee instead.
    """

#: A heuristic's per-record scoring pair: ``(score_into(v, neighbors) ->
#: scores, after_commit(v, neighbors, pid) | None)``.  ``score_into``
#: writes the length-K score vector into a preallocated buffer and
#: returns it; :class:`PlacementKernel` masks/argmaxes that buffer in
#: place.
FastKernel = tuple[Callable[[int, np.ndarray], np.ndarray],
                   Callable[[int, np.ndarray, int], None] | None]


class _Scratch:
    """Reusable length-K buffers backing the placement kernel.

    One instance is attached to a :class:`PartitionState` by
    :meth:`PartitionState.ensure_scratch`; every ``*_into`` kernel and
    every heuristic's fused scorer writes into these instead of
    allocating per record.  ``zeros_k`` is a shared all-zero count
    vector handed out for empty neighborhoods — callers must treat it
    as read-only.  Nothing here is sized by a degree: a record may be
    longer than any the stream announced (a ``FileStream`` announces
    none; a served placement may carry its own neighbor list).
    """

    __slots__ = ("scores", "f1", "f3", "i1", "i32",
                 "weights", "edge_weights", "inelig", "inelig2", "zeros_k")

    def __init__(self, num_partitions: int) -> None:
        k = num_partitions
        self.scores = np.empty(k, dtype=np.float64)
        self.f1 = np.empty(k, dtype=np.float64)
        self.f3 = np.empty(k, dtype=np.float64)
        self.i1 = np.empty(k, dtype=np.int64)
        self.i32 = np.empty(k, dtype=np.int32)
        self.weights = np.empty(k, dtype=np.float64)
        self.edge_weights = np.empty(k, dtype=np.float64)
        self.inelig = np.empty(k, dtype=bool)
        self.inelig2 = np.empty(k, dtype=bool)
        self.zeros_k = np.zeros(k, dtype=np.int64)


class BalanceMode(str, enum.Enum):
    """Which workload measure the capacity constraint bounds (Eqs. 1–2).

    ``BOTH`` enforces the two caps simultaneously (the multi-constraint
    regime the paper cites XtraPuLP for): a partition is eligible only
    while under its vertex *and* edge capacities, and the penalty is the
    tighter of the two remaining-capacity weights.
    """

    VERTEX = "vertex"
    EDGE = "edge"
    BOTH = "both"


class PartitionState:
    """The mutable "local view" state shared by every streaming heuristic.

    Tracks the route table, per-partition vertex/edge tallies, and the
    remaining-capacity penalty ``w^t(i, v) = 1 - |P_i^t| / C``.
    """

    __slots__ = ("num_partitions", "num_vertices", "num_edges", "balance",
                 "capacity", "edge_capacity", "overflow_policy", "route",
                 "vertex_counts", "edge_counts", "placed_vertices",
                 "placed_edges", "capacity_overflows", "_nc_memo", "scratch")

    def __init__(self, num_partitions: int, num_vertices: int,
                 num_edges: int, *, balance: BalanceMode = BalanceMode.VERTEX,
                 slack: float = 1.1, edge_slack: float | None = None,
                 overflow: str = "least-loaded") -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if slack < 1.0:
            raise ValueError("slack (the paper's δ) must be >= 1.0")
        if edge_slack is not None and edge_slack < 1.0:
            raise ValueError("edge_slack must be >= 1.0")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow!r}")
        self.overflow_policy = overflow
        self.num_partitions = num_partitions
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.balance = balance
        total = num_edges if balance is BalanceMode.EDGE else num_vertices
        # C = δ·|G|/K, rounded up so K·C always covers the whole graph.
        self.capacity = max(1.0, math.ceil(slack * total / num_partitions))
        if balance is BalanceMode.BOTH:
            # the paper's multi-constraint setting (δ_v = 1.0, δ_e = 50
            # for XtraPuLP) keeps the secondary cap looser by default
            e_slack = edge_slack if edge_slack is not None \
                else max(slack, 1.5)
            self.edge_capacity = max(1.0, math.ceil(
                e_slack * num_edges / num_partitions))
        else:
            self.edge_capacity = None
        self.route = np.full(num_vertices, UNASSIGNED, dtype=np.int32)
        self.vertex_counts = np.zeros(num_partitions, dtype=np.int64)
        self.edge_counts = np.zeros(num_partitions, dtype=np.int64)
        self.placed_vertices = 0
        self.placed_edges = 0
        self.capacity_overflows = 0
        # Memo of the last neighbor tally, so an attached probe can reuse
        # what scoring already computed (see consume_neighbor_counts).
        # One attribute holding a (neighbors, counts) pair, assigned
        # whole, so the pair can never mismatch.
        self._nc_memo = None
        self.scratch: _Scratch | None = None

    # -- preallocated kernel buffers ------------------------------------
    def ensure_scratch(self) -> _Scratch:
        """Allocate (or reuse) the reusable length-K kernel buffers."""
        if self.scratch is None:
            self.scratch = _Scratch(self.num_partitions)
        return self.scratch

    def penalty_weights_into(self, out: np.ndarray) -> np.ndarray:
        """:meth:`penalty_weights` written into ``out`` — no temporaries.

        Bit-identical to the allocating version (same elementwise
        operations in the same order).
        """
        np.divide(self.loads(), self.capacity, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        if self.edge_capacity is not None:
            ew = self.scratch.edge_weights
            np.divide(self.edge_counts, self.edge_capacity, out=ew)
            np.subtract(1.0, ew, out=ew)
            np.maximum(ew, 0.0, out=ew)
            np.minimum(out, ew, out=out)
        return out

    # ------------------------------------------------------------------
    def loads(self) -> np.ndarray:
        """Current workload per partition in the active balance measure.

        Under ``BOTH`` this is the vertex tally (the primary constraint,
        also used for tie-breaking); the edge cap acts through
        :meth:`penalty_weights` and :meth:`eligible`.
        """
        if self.balance is BalanceMode.EDGE:
            return self.edge_counts
        return self.vertex_counts

    def penalty_weights(self) -> np.ndarray:
        """``w^t(i, v) = max(0, 1 - |P_i^t|/C)`` for every partition.

        Under ``BOTH``, the tighter of the vertex and edge weights.
        """
        weights = np.maximum(0.0, 1.0 - self.loads() / self.capacity)
        if self.edge_capacity is not None:
            edge_weights = np.maximum(
                0.0, 1.0 - self.edge_counts / self.edge_capacity)
            weights = np.minimum(weights, edge_weights)
        return weights

    def eligible(self) -> np.ndarray:
        """Boolean mask of partitions with remaining capacity."""
        mask = self.loads() < self.capacity
        if self.edge_capacity is not None:
            mask &= self.edge_counts < self.edge_capacity
        return mask

    def neighbor_partition_counts(self,
                                  neighbors: np.ndarray) -> np.ndarray:
        """``|V_i^pt ∩ N_out(v)|`` for every partition, vectorized.

        Unplaced neighbors contribute to no partition.
        """
        if len(neighbors) == 0:
            return np.zeros(self.num_partitions, dtype=np.int64)
        parts = self.route[neighbors]
        placed = parts[parts != UNASSIGNED]
        counts = np.bincount(placed, minlength=self.num_partitions
                             ).astype(np.int64)
        self._nc_memo = (neighbors, counts, placed.size)
        return counts

    def consume_neighbor_counts(self, neighbors: np.ndarray
                                ) -> tuple[np.ndarray, int] | None:
        """One-shot read of the memoized tally for exactly ``neighbors``.

        Returns ``(counts, num_placed)`` from the most recent
        :meth:`neighbor_partition_counts` call *iff* it was for the same
        array object (identity, not equality — the streamed record hands
        the same array to scoring and to the probe), else ``None``.  The
        memo is cleared on read so a stale tally can never be replayed.
        """
        memo = self._nc_memo
        if memo is None or memo[0] is not neighbors:
            return None
        self._nc_memo = None
        return memo[1], memo[2]

    def commit(self, record: AdjacencyRecord, pid: int) -> None:
        """Apply a placement decision (Algorithm 1, lines 2–4).

        The reference commit behind :meth:`StreamingPartitioner.place`;
        a streaming pass commits through :class:`PlacementKernel`.
        """
        if not 0 <= pid < self.num_partitions:
            raise ValueError(f"invalid partition id {pid}")
        if self.route[record.vertex] != UNASSIGNED:
            raise ValueError(f"vertex {record.vertex} placed twice")
        self.route[record.vertex] = pid
        self.vertex_counts[pid] += 1
        self.edge_counts[pid] += record.out_degree
        self.placed_vertices += 1
        self.placed_edges += record.out_degree

    def to_assignment(self) -> PartitionAssignment:
        """Snapshot the route table as an immutable assignment."""
        return PartitionAssignment(self.route.copy(), self.num_partitions)

    # -- checkpoint/restore --------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Everything needed to rebuild this state in a fresh process.

        Configuration fields (dimensions, balance mode, capacities) are
        included so :meth:`load_state` can refuse a snapshot taken under
        different run parameters instead of silently mixing them.  The
        route table and both tallies are the live arrays, valid until
        the next commit; copy them to keep them.
        """
        return {
            "num_partitions": int(self.num_partitions),
            "num_vertices": int(self.num_vertices),
            "num_edges": int(self.num_edges),
            "balance": self.balance.value,
            "capacity": float(self.capacity),
            "edge_capacity": None if self.edge_capacity is None
            else float(self.edge_capacity),
            "overflow_policy": self.overflow_policy,
            "route": self.route,
            "vertex_counts": self.vertex_counts,
            "edge_counts": self.edge_counts,
            "placed_vertices": int(self.placed_vertices),
            "placed_edges": int(self.placed_edges),
            "capacity_overflows": int(self.capacity_overflows),
        }

    def load_state(self, payload: dict[str, Any]) -> None:
        """Restore from :meth:`state_dict` output (config must match).

        The kernel scratch is *not* restored: it is derived state,
        rebuilt from the restored arrays the next time a
        :class:`PlacementKernel` is constructed (its maintained images
        are all initialized from the live route/counts).
        """
        for field_name in ("num_partitions", "num_vertices", "num_edges"):
            if int(payload[field_name]) != getattr(self, field_name):
                raise ValueError(
                    f"snapshot {field_name}={payload[field_name]} does not "
                    f"match this run's {getattr(self, field_name)}")
        if payload["balance"] != self.balance.value:
            raise ValueError(
                f"snapshot balance mode {payload['balance']!r} does not "
                f"match this run's {self.balance.value!r}")
        if float(payload["capacity"]) != float(self.capacity):
            raise ValueError(
                f"snapshot capacity {payload['capacity']} does not match "
                f"this run's {self.capacity} (different slack?)")
        np.copyto(self.route, payload["route"])
        np.copyto(self.vertex_counts, payload["vertex_counts"])
        np.copyto(self.edge_counts, payload["edge_counts"])
        self.placed_vertices = int(payload["placed_vertices"])
        self.placed_edges = int(payload["placed_edges"])
        self.capacity_overflows = int(payload["capacity_overflows"])
        self._nc_memo = None


class PlacementKernel:
    """The one placement step (Algorithm 1, lines 2-7) over live state.

    Built once per ``(partitioner, state)``.  How a scored record
    becomes a placement is decided here and nowhere else: every driver
    of a streaming pass — :meth:`StreamingPartitioner.partition`, the
    checkpointing driver, the placement server's apply and replay
    loops, the parallel executors — places through the two halves

    * ``score(v, neighbors) -> scores`` — the length-K score vector from
      the local view.  It is a scratch row, overwritten by the next
      call: copy it to keep it (a Sec. V-B group scores M records
      against the group-start state before committing any);
    * ``commit(v, neighbors, scores=None) -> pid`` — argmax under
      capacity, route and per-partition tallies, the heuristic's own
      update, the probe feed.  ``scores`` (float64) is destroyed; left
      out, it is ``score(v, neighbors)``, which makes ``commit`` the
      whole placement step, the group of one.  It picks the
      *identical* partition as :meth:`StreamingPartitioner.choose` for
      any score vector: same capacity masking, same overflow safety
      valve, same least-loaded-then-lowest-id tie-break (the frozen
      route digests and the byte-identity suite rest on this).

    Records are placed in arrival order with no contiguity requirement
    on the ids.

    The scoring pair is the heuristic's hand-fused one
    (:meth:`StreamingPartitioner._fast_kernel`) when it ships one, else
    — or always under ``reference=True`` — the pair derived from
    ``_score``/``_after_commit``.  Every maintained image (this class's
    ineligibility mask, the heuristics' shifted route table, penalty
    weights, η lanes) is initialised from the live state, so a kernel
    built over restored or replayed state continues the run exactly.
    The price is that nothing else may commit to ``state`` while the
    kernel is in use, that loads only grow (the mask never clears a
    lane), and that the kernel captures the state's arrays by
    reference: rebind them (a shared-memory pool attaching or
    detaching) and the kernel must be rebuilt.  Concurrent scorers
    (worker processes) therefore keep calling the
    reference ``_score``, which reads live state and touches no
    scratch; the single committer owns the kernel.

    The ineligibility mask is maintained *incrementally*: only the
    committed lane changes per record, so the K-wide ``>=`` scans (plus
    the ``-inf`` scatter while every lane is still eligible — the
    overwhelmingly common regime) disappear from the per-record cost.

    ``observe(v, neighbors, pid, margin)`` (a
    :meth:`~repro.observability.StreamProbe.observe`) is called after
    each commit with the argmax-vs-runner-up score margin: ``0.0`` on a
    tied argmax, ``None`` when fewer than two partitions were eligible
    (no runner-up to compare against), finite otherwise.
    """

    __slots__ = ("state", "score", "commit")

    def __init__(self, partitioner: "StreamingPartitioner",
                 state: PartitionState, *, reference: bool = False,
                 observe: Callable[..., None] | None = None) -> None:
        scratch = state.ensure_scratch()
        pair = None if reference else partitioner._fast_kernel(state)
        if pair is None:
            pair = partitioner._reference_kernel(state)
        score_into, after_commit = pair
        route = state.route
        vertex_counts = state.vertex_counts
        edge_counts = state.edge_counts
        loads = state.loads()  # stable array reference, mutated in place
        capacity = state.capacity
        edge_capacity = state.edge_capacity
        inelig = scratch.inelig
        neg_inf = -np.inf
        isfinite = math.isfinite

        np.greater_equal(loads, capacity, out=inelig)
        if edge_capacity is not None:
            np.greater_equal(edge_counts, edge_capacity,
                             out=scratch.inelig2)
            np.logical_or(inelig, scratch.inelig2, out=inelig)
        num_inelig = int(np.count_nonzero(inelig))
        # One-lane reads and writes go through memoryviews of the same
        # arrays: indexing one yields a Python int (or bool), where the
        # array would box a numpy scalar at about three times the price.
        vertex_lane = memoryview(vertex_counts)
        edge_lane = memoryview(edge_counts)
        load_lane, full = memoryview(loads), memoryview(inelig)

        def commit(v: int, neighbors: np.ndarray,
                   scores: np.ndarray | None = None) -> int:
            nonlocal num_inelig
            if scores is None:
                scores = score_into(v, neighbors)
            if num_inelig:
                np.copyto(scores, neg_inf, where=inelig)
            pid = int(scores.argmax())
            best = scores[pid]
            margin = None
            if num_inelig and not isfinite(best):
                partitioner._note_overflow(state)  # every partition full
                pid = int(loads.argmin())
            else:
                # Scrub-and-rescan: cheap uniqueness test in the common
                # untied case; the rescan is also the runner-up score,
                # read through ``argmax`` (a fifth of ``max()``'s price
                # at K = 32, the same value).
                scores[pid] = neg_inf
                runner_up = scores[scores.argmax()]
                if runner_up == best:
                    scores[pid] = best
                    candidates = np.nonzero(scores == best)[0]
                    pid = int(candidates[loads[candidates].argmin()])
                    margin = 0.0
                elif observe is not None and isfinite(runner_up):
                    margin = float(best - runner_up)
            degree = len(neighbors)
            route[v] = pid
            vertex_lane[pid] += 1
            edge_lane[pid] += degree
            state.placed_vertices += 1
            state.placed_edges += degree
            if after_commit is not None:
                after_commit(v, neighbors, pid)
            if not full[pid] and (
                    load_lane[pid] >= capacity
                    or (edge_capacity is not None
                        and edge_lane[pid] >= edge_capacity)):
                full[pid] = True
                num_inelig += 1
            if observe is not None:
                observe(v, neighbors, pid, margin)
            return pid

        self.state = state
        self.score = score_into
        self.commit = commit

    def run(self, source: VertexStream, *, every: int | None = None,
            on_segment: Callable[[int, float], None] | None = None,
            elapsed: float = 0.0) -> float:
        """Place every remaining record of ``source``; returns the ``PT``.

        An :class:`~repro.graph.stream.ArrayStream` is read straight out
        of its CSR arrays (no record objects); anything else is iterated.
        With ``every``, ``on_segment(position, elapsed)`` runs untimed
        after each ``every`` records while records remain — the
        checkpointing driver snapshots there.  ``elapsed`` seeds the
        running total (a resumed pass continues its clock).
        """
        commit = self.commit
        state = self.state
        total = source.num_vertices
        csr = type(source) is ArrayStream
        if csr:
            indptr, indices, order = (source.indptr, source.indices,
                                      source.order)
        else:
            records = iter(source)
            route = state.route
        position = source.tell() if hasattr(source, "tell") else 0
        while position < total:
            stop = total if every is None else min(total, position + every)
            before = state.placed_vertices
            start_t = time.perf_counter()
            if csr:
                # Ids and slice bounds as Python ints, converted a
                # bounded chunk at a time (nothing here is |V|-sized).
                for lo in range(position, stop, _CSR_CHUNK):
                    hi = min(stop, lo + _CSR_CHUNK)
                    ids = np.arange(lo, hi) if order is None \
                        else order[lo:hi]
                    for v, a, b in zip(ids.tolist(), indptr[ids].tolist(),
                                       indptr[ids + 1].tolist()):
                        commit(v, indices[a:b])
            else:
                # The last segment drains the iterator, so generator
                # streams run their end-of-stream accounting.
                for record in islice(
                        records, None if stop == total else stop - position):
                    if route[record.vertex] != UNASSIGNED:
                        raise ValueError(
                            f"vertex {record.vertex} placed twice")
                    commit(record.vertex, record.neighbors)
            elapsed += time.perf_counter() - start_t
            position += state.placed_vertices - before
            if position < stop:
                break  # the stream under-delivered
            if position < total and on_segment is not None:
                on_segment(position, elapsed)
        return elapsed


def make_shifted_counter(state: PartitionState) -> tuple[
        Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """Neighbor tallies via a *maintained* shifted route table.

    Returns ``(counts, shifted)``.  ``counts(neighbors)`` equals
    :meth:`PartitionState.neighbor_partition_counts` but against the
    persistent ``route + 1`` image ``shifted`` (``UNASSIGNED`` ⇒ slot 0,
    dropped after the tally), so the per-record cost is one gather plus
    one ``bincount`` — the ``+1`` shift moved to the single committed
    lane: the caller writes ``shifted[v] = pid + 1`` after each commit.
    """
    shifted = (state.route + 1).astype(np.int32)
    zeros_k = state.scratch.zeros_k
    kp1 = state.num_partitions + 1

    def counts(neighbors: np.ndarray) -> np.ndarray:
        if len(neighbors) == 0:
            return zeros_k
        return np.bincount(shifted[neighbors], minlength=kp1)[1:]

    return counts, shifted


def make_weight_updater(state: PartitionState,
                        weights: np.ndarray) -> Callable[[int], None]:
    """Incremental maintenance of the penalty-weight vector ``w^t``.

    Fills ``weights`` via :meth:`PartitionState.penalty_weights_into`
    once, then returns ``update(pid)`` which refreshes the single lane a
    commit touched with scalar IEEE arithmetic — the same divide /
    subtract / clamp (/ min) sequence as the vector kernel, applied to
    one lane, so the maintained vector stays bit-identical to a full
    recompute while the per-record cost drops from three-to-five K-wide
    ufuncs to a couple of scalar ops.
    """
    state.penalty_weights_into(weights)
    # Memoryviews hand out Python ints: the same correctly rounded
    # quotient the int64 lanes give (loads are far below 2**53), without
    # boxing numpy scalars.
    loads = memoryview(state.loads())
    capacity = state.capacity
    edge_counts = memoryview(state.edge_counts)
    edge_capacity = state.edge_capacity

    def update(pid: int) -> None:
        w = 1.0 - loads[pid] / capacity
        if w < 0.0:
            w = 0.0
        if edge_capacity is not None:
            we = 1.0 - edge_counts[pid] / edge_capacity
            if we < 0.0:
                we = 0.0
            if we < w:
                w = we
        weights[pid] = w

    return update


@dataclass
class StreamingResult:
    """Outcome of one streaming partitioning run.

    ``stats`` stays a plain dict (the backwards-compatible payload every
    sink and bench table consumes), but the normalised keys are also
    exposed as typed properties — ``result.placements`` instead of
    ``result.stats["placements"]`` — so callers and the service ``stats``
    endpoint stop string-indexing.  Keys a heuristic did not report come
    back as their documented defaults, never :class:`KeyError`.
    """

    assignment: PartitionAssignment
    partitioner: str
    elapsed_seconds: float
    num_partitions: int
    stats: dict[str, Any] = field(default_factory=dict)

    # -- typed accessors over the normalised stats keys ----------------
    @property
    def placements(self) -> int:
        """Vertices placed by the pass (``stats["placements"]``)."""
        return int(self.stats.get("placements", 0))

    @property
    def capacity_overflows(self) -> int:
        """All-partitions-full safety-valve events."""
        return int(self.stats.get("capacity_overflows", 0))

    @property
    def expectation_table_entries(self) -> int:
        """Live Γ-table entry count (0 for Γ-free heuristics)."""
        return int(self.stats.get("expectation_table_entries", 0))

    @property
    def expectation_table_bytes(self) -> int:
        """Live Γ-table footprint in bytes (0 for Γ-free heuristics)."""
        return int(self.stats.get("expectation_table_bytes", 0))

    @property
    def fast_path(self) -> bool:
        """Whether the pass read its records straight out of CSR arrays."""
        return bool(self.stats.get("fast_path", False))

    @property
    def ingest(self) -> dict[str, Any] | None:
        """Prefetch/ingest accounting, when the stream reported any."""
        return self.stats.get("ingest")

    def __str__(self) -> str:
        return (f"{self.partitioner}: K={self.num_partitions} in "
                f"{self.elapsed_seconds:.3f}s")


class StreamingPartitioner(ABC):
    """Base class for all one-pass streaming heuristics.

    Parameters
    ----------
    num_partitions:
        ``K``.
    balance:
        Vertex- or edge-based capacity (the paper primarily evaluates
        vertex balance; Table III reports both factors).
    slack:
        The user-given balance threshold ``δ`` in ``C = δ·|G|/K``.
    """

    def __init__(self, num_partitions: int, *,
                 balance: BalanceMode | str = BalanceMode.VERTEX,
                 slack: float = 1.1,
                 edge_slack: float | None = None,
                 overflow: str = "least-loaded") -> None:
        self.num_partitions = int(num_partitions)
        self.balance = BalanceMode(balance)
        self.slack = float(slack)
        self.edge_slack = edge_slack
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow!r}")
        self.overflow = overflow

    # -- identification -------------------------------------------------
    @property
    def name(self) -> str:
        """Short display name used in reports (defaults to class name)."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}(K={self.num_partitions})"

    # -- per-heuristic hooks ---------------------------------------------
    def _setup(self, stream: VertexStream, state: PartitionState) -> None:
        """Called once before streaming; allocate heuristic state here."""

    @abstractmethod
    def _score(self, record: AdjacencyRecord,
               state: PartitionState) -> np.ndarray:
        """Return the length-K placement score vector for one record.

        The reference scorer: it reads only live state and allocates
        its result, so worker processes may call it concurrently
        while the single committer owns the kernel.  Its production
        callers are the process executor's workers and, through
        :meth:`place`, restreaming; everything else scores through the
        kernel.
        """

    def _after_commit(self, record: AdjacencyRecord, pid: int,
                      state: PartitionState) -> None:
        """Called after each placement; update heuristic state here."""

    def _extra_stats(self) -> dict[str, Any]:
        """Heuristic-specific numbers to attach to the result."""
        return {}

    def _heuristic_state_dict(self) -> dict[str, Any]:
        """Heuristic-private run state for a checkpoint (default: none).

        Called only between records of an active run (after ``_setup``).
        Values must be scalars, strings, nested dicts, or numpy arrays —
        the snapshot codec's vocabulary.
        """
        return {}

    def _load_heuristic_state(self, payload: dict[str, Any]) -> None:
        """Restore :meth:`_heuristic_state_dict` output (after ``_setup``)."""

    # -- process sharding -----------------------------------------------
    def score_lanes(self) -> dict[str, np.ndarray] | None:
        """Declare the heuristic-private arrays ``_score`` reads.

        The process-sharded executor moves every array that scoring
        depends on into shared memory: the :class:`PartitionState`
        triple (route table, vertex/edge tallies) is handled by the
        executor itself, and this hook names whatever *else* the
        heuristic mutates between records — Γ lanes, SPNL's shrinking
        ``|V^lt|`` tally.  Called after ``_setup``.

        Returning ``None`` (the default) declares the heuristic
        *unsupported* for process sharding: it may hold mutable score
        state the executor cannot see, so sharding it would silently
        score against stale private copies.  A heuristic whose only
        mutable score state is the shared :class:`PartitionState`
        returns ``{}``.
        """
        return None

    def attach_score_lanes(self, lanes: dict[str, np.ndarray]) -> None:
        """Rebind the :meth:`score_lanes` arrays onto shared views.

        ``lanes`` maps the same keys :meth:`score_lanes` declared to
        equal-shape/dtype arrays backed by shared memory.  Called once
        per process after ``_setup`` — in the parent after the initial
        values were copied in, in each worker on zero-copy views of the
        live segment.
        """
        mine = self.score_lanes()
        if mine is None:
            raise ValueError(
                f"{self.name} does not declare score lanes; it cannot "
                "run under the process-sharded executor")
        if set(lanes) != set(mine):
            raise ValueError(
                f"lane mismatch: expected {sorted(mine)}, "
                f"got {sorted(lanes)}")
        if mine:  # heuristics with lanes must override the rebind
            raise NotImplementedError(
                f"{self.name} declares lanes {sorted(mine)} but does not "
                "implement attach_score_lanes")

    # -- checkpoint/restore -------------------------------------------------
    def state_dict(self, state: PartitionState) -> dict[str, Any]:
        """Capture the full mid-run state of this partitioner.

        The result (shared :class:`PartitionState` plus the heuristic's
        private state — Γ tables, η bookkeeping, FENNEL's effective α)
        is what :mod:`repro.recovery.snapshot` serializes; feeding it to
        :meth:`load_state` in a fresh process reproduces the run
        byte-for-byte from the captured stream position.

        Its arrays are live views, valid until the next commit: write
        the payload before placing another record, or copy what must be
        kept.  :meth:`load_state` copies, so a payload never aliases two
        runs.
        """
        return {
            "partitioner": self.name,
            "partition_state": state.state_dict(),
            "heuristic": self._heuristic_state_dict(),
        }

    def load_state(self, stream: VertexStream,
                   payload: dict[str, Any]) -> PartitionState:
        """Rebuild run state from :meth:`state_dict` output.

        Runs the normal ``make_state`` + ``_setup`` sequence (so every
        derived structure — Γ store, Range tables, scratch — exists and
        is sized for ``stream``), then overwrites the mutable state with
        the snapshot's.  Returns the restored :class:`PartitionState`;
        the caller seeks the stream and continues the pass.
        """
        saved = payload.get("partitioner")
        if saved is not None and saved != self.name:
            raise ValueError(
                f"snapshot was taken by partitioner {saved!r}, cannot "
                f"restore into {self.name!r}")
        state = self.make_state(stream)
        self._setup(stream, state)
        state.load_state(payload["partition_state"])
        self._load_heuristic_state(payload.get("heuristic", {}))
        return state

    # -- shared placement machinery ---------------------------------------
    @staticmethod
    def _note_overflow(state: PartitionState) -> None:
        """Apply the all-partitions-full policy: count, or fail loudly."""
        if state.overflow_policy == "strict":
            raise CapacityOverflowError(
                f"all {state.num_partitions} partitions are at capacity "
                f"{state.capacity}")
        state.capacity_overflows += 1

    def choose(self, scores: np.ndarray, state: PartitionState) -> int:
        """Pick a partition from a score vector under the shared policy.

        The reference decision: it recomputes eligibility from the live
        loads on every call, so it also holds where loads shrink.
        :meth:`PlacementKernel.commit <PlacementKernel>` is the
        incremental form every streaming pass runs and must agree with
        it on any input.
        """
        loads = state.loads()
        masked = np.where(state.eligible(), scores, -np.inf)
        best = masked.max()
        if not np.isfinite(best):
            self._note_overflow(state)
            return int(np.argmin(loads))  # all partitions full
        candidates = np.nonzero(masked == best)[0]
        if len(candidates) == 1:
            return int(candidates[0])
        return int(candidates[np.argmin(loads[candidates])])

    def place(self, record: AdjacencyRecord, state: PartitionState) -> int:
        """Score + choose + commit + heuristic update for one record.

        The reference placement, kept on purpose: the byte-identity
        tests compare the kernel against it, and
        :class:`~repro.partitioning.restreaming.RestreamingPartitioner`
        runs on it because it moves vertices between partitions — loads
        that shrink, which the kernel's grow-only mask does not support.
        No streaming pass calls it.
        """
        pid = self.choose(self._score(record, state), state)
        state.commit(record, pid)
        self._after_commit(record, pid, state)
        return pid

    # -- the placement kernel ----------------------------------------------
    def _fast_kernel(self, state: PartitionState) -> FastKernel | None:
        """Build the heuristic's hand-fused scoring pair, or ``None``.

        A fused pair **must** produce bit-identical scores to
        :meth:`_score` and leave the heuristic's state exactly as
        :meth:`_after_commit` would (the frozen route digests and the
        registry-wide byte-identity test enforce the resulting
        assignments match).  The default ships none, and
        :class:`PlacementKernel` derives the pair from the reference
        hooks instead.
        """
        return None

    def _reference_kernel(self, state: PartitionState) -> FastKernel:
        """The scoring pair derived from ``_score``/``_after_commit``.

        What heuristics without a fused pair run on, and what
        ``partition(fast=False)`` compares the fused ones against.  The
        scores are copied into the kernel's float64 buffer (``choose``
        promotes the same way) because the kernel destroys them.  A
        step scores a record, then commits that same record, so
        ``after_commit`` reuses the one ``score_into`` built (with the
        Python-int vertex id a record stream would have delivered); a
        group commits records other than the last one scored, and those
        get a record of their own.
        """
        scores = state.ensure_scratch().scores
        record = None

        def score_into(v: int, neighbors: np.ndarray) -> np.ndarray:
            nonlocal record
            record = AdjacencyRecord(int(v), neighbors)
            np.copyto(scores, self._score(record, state))
            return scores

        def after_commit(v: int, neighbors: np.ndarray, pid: int) -> None:
            scored = record
            if scored is None or scored.neighbors is not neighbors \
                    or scored.vertex != v:
                scored = AdjacencyRecord(int(v), neighbors)
            self._after_commit(scored, pid, state)

        return score_into, after_commit

    # -- the one-pass driver ----------------------------------------------
    def partition(self, stream: VertexStream, *,
                  instrumentation=None,
                  fast: bool | None = None) -> StreamingResult:
        """Run the single streaming pass over ``stream``.

        Timing covers exactly the paper's ``PT`` window: from consuming the
        first adjacency record to producing the final route table.

        ``instrumentation`` (an
        :class:`~repro.observability.Instrumentation` hub, or ``None``)
        opts the pass into windowed tracing: a
        :class:`~repro.observability.StreamProbe` is fed every placement
        by the same kernel step that runs uninstrumented, so the
        produced assignment is byte-identical either way.

        ``fast=False`` scores through the reference kernel derived from
        ``_score``/``_after_commit`` (the byte-identity suite's
        comparison side) instead of the heuristic's fused one; the loop
        is the same and the assignment byte-identical.
        ``stats["fast_path"]`` reports whether records were read straight
        out of CSR arrays (:func:`~repro.graph.stream.as_array_stream`)
        rather than iterated.
        """
        state = self.make_state(stream)
        self._setup(stream, state)
        return self._finish_pass(stream, state,
                                 instrumentation=instrumentation, fast=fast)

    def _finish_pass(self, stream: VertexStream, state: PartitionState, *,
                     instrumentation=None, fast: bool | None = None,
                     every: int | None = None, on_segment=None,
                     elapsed: float = 0.0) -> StreamingResult:
        """Place the rest of ``stream`` into ``state`` and build the result.

        The body of :meth:`partition`, also driven by the checkpointing
        driver over fresh or restored state: ``every``/``on_segment``/
        ``elapsed`` are :meth:`PlacementKernel.run`'s.
        """
        probe = None if instrumentation is None \
            else instrumentation.stream_probe(self, state)
        kernel = PlacementKernel(
            self, state, reference=fast is False,
            observe=None if probe is None else probe.observe)
        arrays = as_array_stream(stream)
        elapsed = kernel.run(stream if arrays is None else arrays,
                             every=every, on_segment=on_segment,
                             elapsed=elapsed)
        if probe is not None:
            probe.finish(elapsed)
        stats = self.result_stats(state)
        stats["fast_path"] = arrays is not None
        # Prefetching streams account for where ingest wall-clock went
        # (producer busy/blocked vs consumer wait); surface it so bench
        # and trace consumers see the overlap without knowing the type.
        ingest_stats = getattr(stream, "ingest_stats", None)
        if callable(ingest_stats):
            stats["ingest"] = ingest_stats()
        return StreamingResult(
            assignment=state.to_assignment(),
            partitioner=self.name,
            elapsed_seconds=elapsed,
            num_partitions=self.num_partitions,
            stats=stats,
        )

    def result_stats(self, state: PartitionState) -> dict[str, Any]:
        """Normalised stats shared by every heuristic, plus extras.

        The common keys (``placements``, ``capacity_overflows``,
        ``expectation_table_entries``) are always present so sinks and
        bench tables can consume results without per-heuristic casing;
        :meth:`_extra_stats` may override the defaults (SPN/SPNL report
        their real Γ-table sizes).
        """
        stats: dict[str, Any] = {
            "placements": int(state.placed_vertices),
            "capacity_overflows": int(state.capacity_overflows),
            "expectation_table_entries": 0,
            "expectation_table_bytes": 0,
        }
        stats.update(self._extra_stats())
        return stats

    def make_state(self, stream: VertexStream) -> PartitionState:
        """Build the shared state sized for ``stream``."""
        return PartitionState(
            self.num_partitions, stream.num_vertices, stream.num_edges,
            balance=self.balance, slack=self.slack,
            edge_slack=self.edge_slack, overflow=self.overflow)
