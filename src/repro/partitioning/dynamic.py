"""Incremental partition maintenance for evolving graphs.

The paper's introduction motivates cheap (re-)partitioning with graphs
that "are frequently updated and/or shared by multi-tenants".  This
module closes that loop: :class:`DynamicPartitioner` keeps a live SPNL
local view (route table, tallies, Γ expectation store, logical table)
and absorbs graph growth without full re-partitioning:

* **new vertices** are placed by the normal SPNL scoring rule the moment
  their adjacency list arrives — streaming is already an online
  algorithm, so this costs exactly one streamed record;
* **new edges on existing vertices** update the Γ knowledge and tallies;
  affected endpoints can optionally be *re-streamed* (re-scored and
  moved if the heuristic now prefers another partition), bounded per
  update batch;
* quality drift is observable via :meth:`current_quality`, and a full
  re-stream (:meth:`restream`) restores near-fresh quality in one pass,
  amortized across the many updates that triggered it.

The Γ store here is always the dense table: windowing assumes a single
forward pass, which an online service by definition does not have.

Placement runs on the reference hooks (``place()``, ``_score`` +
``choose``) on purpose, not on the
:class:`~repro.partitioning.base.PlacementKernel` every streaming pass
uses: re-streaming *moves* vertices, so loads shrink as well as grow,
and the kernel's incrementally maintained eligibility mask (like the
fused scorers' maintained route and weight images) only follows
commits it made itself.  ``choose`` recomputes eligibility from the
live loads on every call.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..graph.builder import GraphBuilder
from ..graph.digraph import AdjacencyRecord, DiGraph
from ..graph.stream import GraphStream
from .assignment import UNASSIGNED, PartitionAssignment
from .base import PartitionState
from .metrics import QualityReport, evaluate
from .spnl import SPNLPartitioner

__all__ = ["DynamicPartitioner"]


class DynamicPartitioner:
    """Maintains an SPNL partitioning of a growing graph.

    Parameters
    ----------
    num_partitions:
        ``K``.
    capacity_vertices:
        Upper bound on the vertex-id space the instance can grow into
        (pre-sizes the route table and Γ store).
    lam, slack:
        Forwarded to the underlying :class:`SPNLPartitioner`.
    max_restream_per_batch:
        Cap on how many *existing* endpoints one :meth:`add_edges` call
        may re-score (bounds update latency).
    """

    def __init__(self, num_partitions: int, *, capacity_vertices: int,
                 lam: float = 0.5, slack: float = 1.1,
                 max_restream_per_batch: int = 256) -> None:
        if capacity_vertices < 1:
            raise ValueError("capacity_vertices must be >= 1")
        self.capacity_vertices = capacity_vertices
        self.max_restream_per_batch = max_restream_per_batch
        self._spnl = SPNLPartitioner(num_partitions, lam=lam,
                                     slack=slack, num_shards=1)
        self._builder = GraphBuilder(capacity_vertices)
        self._graph: DiGraph | None = None
        self._adjacency: dict[int, list[int]] = {}

        class _Spec:
            num_vertices = capacity_vertices
            num_edges = 0
            is_id_ordered = False
        self._state = self._spnl.make_state(_Spec())
        self._spnl._setup(_Spec(), self._state)
        self._dirty = True

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._spnl.num_partitions

    @property
    def num_known_vertices(self) -> int:
        return len(self._adjacency)

    def partition_of(self, vertex: int) -> int:
        """Current placement (``UNASSIGNED`` if never seen)."""
        return int(self._state.route[vertex])

    def assignment(self) -> PartitionAssignment:
        """Snapshot covering the known id space."""
        known = max(self._adjacency) + 1 if self._adjacency else 0
        return PartitionAssignment(self._state.route[:known].copy(),
                                   self.num_partitions)

    # ------------------------------------------------------------------
    def _record(self, vertex: int) -> AdjacencyRecord:
        return AdjacencyRecord(
            vertex,
            np.asarray(self._adjacency.get(vertex, []), dtype=np.int64))

    def _place_new(self, vertex: int) -> int:
        return self._spnl.place(self._record(vertex), self._state)

    def _rescore_existing(self, vertex: int) -> bool:
        """Re-run the scoring rule for a placed vertex; move if better.

        Returns True when the vertex moved.  Tallies stay exact; the Γ
        entries contributed under the old placement are not rewritten
        (bounded staleness, same relaxation as the paper's parallel
        technique).
        """
        state = self._state
        record = self._record(vertex)
        old_pid = int(state.route[vertex])
        scores = self._spnl._score(record, state)
        new_pid = self._spnl.choose(scores, state)
        if new_pid == old_pid:
            return False
        state.route[vertex] = new_pid
        state.vertex_counts[old_pid] -= 1
        state.vertex_counts[new_pid] += 1
        state.edge_counts[old_pid] -= record.out_degree
        state.edge_counts[new_pid] += record.out_degree
        self._spnl.expectation_store.record(new_pid, record.neighbors)
        return True

    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int,
                   out_neighbors: Sequence[int] = ()) -> int:
        """Insert a new vertex with its adjacency; returns its partition."""
        if vertex in self._adjacency:
            raise ValueError(f"vertex {vertex} already present; use "
                             f"add_edges for growth")
        if vertex >= self.capacity_vertices:
            raise ValueError("vertex id beyond capacity_vertices")
        neighbors = [int(u) for u in out_neighbors]
        self._adjacency[vertex] = neighbors
        self._builder.add_adjacency(vertex, neighbors)
        self._dirty = True
        return self._place_new(vertex)

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert edges; place unseen endpoints, re-score touched ones.

        Returns the number of vertices that moved partitions.
        """
        touched: list[int] = []
        for src, dst in edges:
            src, dst = int(src), int(dst)
            for endpoint in (src, dst):
                if endpoint >= self.capacity_vertices:
                    raise ValueError(
                        "vertex id beyond capacity_vertices")
                if endpoint not in self._adjacency:
                    self._adjacency[endpoint] = []
                    self._place_new(endpoint)
            if dst not in self._adjacency[src]:
                self._adjacency[src].append(dst)
                self._builder.add_edge(src, dst)
                pid = int(self._state.route[src])
                # the new out-edge extends P_pid's expectation for dst
                self._spnl.expectation_store.record(
                    pid, np.asarray([dst], dtype=np.int64))
                self._state.edge_counts[pid] += 1
                touched.append(src)
                touched.append(dst)
        self._dirty = True
        moved = 0
        for vertex in touched[:self.max_restream_per_batch]:
            if self._rescore_existing(vertex):
                moved += 1
        return moved

    # ------------------------------------------------------------------
    def graph(self) -> DiGraph:
        """The accumulated graph (rebuilt lazily after updates)."""
        if self._dirty or self._graph is None:
            known = max(self._adjacency) + 1 if self._adjacency else 0
            builder = GraphBuilder(known)
            for vertex, neighbors in self._adjacency.items():
                builder.add_adjacency(vertex, neighbors)
            self._graph = builder.build(name="dynamic")
            self._dirty = False
        return self._graph

    def current_quality(self) -> QualityReport:
        """Evaluate the live assignment against the accumulated graph."""
        return evaluate(self.graph(), self.assignment())

    def restream(self) -> QualityReport:
        """Full one-pass re-partitioning of the accumulated graph.

        Replaces the live state with the fresh result — the maintenance
        action the paper's built-in-partitioner deployment performs
        between jobs.
        """
        graph = self.graph()
        fresh = SPNLPartitioner(self.num_partitions, lam=self._spnl.lam,
                                slack=self._spnl.slack, num_shards=1)
        result = fresh.partition(GraphStream(graph))
        # adopt the fresh state, re-padded to capacity
        self._spnl = fresh
        state = PartitionState(self.num_partitions,
                               self.capacity_vertices, 0,
                               balance=fresh.balance, slack=fresh.slack)
        state.route[:graph.num_vertices] = result.assignment.route
        state.vertex_counts[:] = result.assignment.vertex_counts()
        state.edge_counts[:] = result.assignment.edge_counts(graph)
        state.placed_vertices = graph.num_vertices
        state.placed_edges = graph.num_edges
        self._state = state
        # the fresh partitioner's Γ store only spans graph.num_vertices;
        # grow it to capacity so future inserts can be scored
        fresh._store = fresh.expectation_store.grown(self.capacity_vertices)
        fresh._logical_pid = (np.arange(self.capacity_vertices)
                              * self.num_partitions
                              // self.capacity_vertices).astype(np.int32)
        # V^lt holds logically-assigned but *not yet placed* vertices:
        # everything re-streamed just now is already placed.
        lt = np.bincount(fresh._logical_pid,
                         minlength=self.num_partitions).astype(np.int64)
        lt -= np.bincount(fresh._logical_pid[:graph.num_vertices],
                          minlength=self.num_partitions)
        fresh._lt_counts = lt
        return evaluate(graph, result.assignment)
