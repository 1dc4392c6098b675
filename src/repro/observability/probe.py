"""Windowed mid-stream quality probe (the tentpole of the trace layer).

:class:`StreamProbe` observes every placement of a streaming pass and
emits one ``stream_probe`` record per window of ``every`` placements,
plus a terminal ``stream_summary``.  Each snapshot carries:

* per-partition vertex/edge loads and the vertex load skew
  ``max_i |V_i| · K / placed`` (the running δ_v);
* a **running ECR estimate**: among *resolved* edges — out-edges whose
  target was already placed when the source streamed — the fraction that
  crossed partitions.  This is the standard mid-stream proxy for ECR
  (an edge to a still-unplaced neighbor cannot be scored yet without
  buffering in-adjacency, which a one-pass streamer does not have);
* the **score margin** — argmax score minus runner-up score among
  eligible partitions — a per-decision confidence signal (a window of
  near-zero margins means the heuristic is effectively guessing);
* the Γ expectation-table footprint, via the partitioner's optional
  ``_probe_gauges()`` hook.

Cost model: the probe reuses the neighbor partition counts when the
reference ``_score`` just computed them (see
``PartitionState.consume_neighbor_counts``) and otherwise re-tallies the
record's neighbors once — the fused kernels keep no such memo — so
per-placement overhead is O(degree + K) bookkeeping, and the O(K)-sized
snapshot work only runs once per window.
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from ..partitioning.assignment import UNASSIGNED

__all__ = ["StreamProbe"]


class StreamProbe:
    """Accumulates placement telemetry and emits windowed snapshots.

    Parameters
    ----------
    instrumentation:
        The :class:`~repro.observability.instrumentation.Instrumentation`
        hub records are emitted through.
    state:
        The live :class:`~repro.partitioning.base.PartitionState` of the
        pass being observed.
    partitioner:
        The partitioner driving the pass; used for its display name and
        the optional ``_probe_gauges()`` hook.
    every:
        Window size in placements (N of "snapshot every N placements").
    """

    def __init__(self, instrumentation: Any, state: Any, *,
                 partitioner: Any = None, every: int = 1000) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.instrumentation = instrumentation
        self.state = state
        self.partitioner = partitioner
        self.every = every
        self.placements = 0
        self.windows_emitted = 0
        self.resolved_edges = 0
        self.cut_edges = 0
        self._window_margin_sum = 0.0
        self._window_margin_min = math.inf
        self._window_margin_n = 0
        self._start = time.perf_counter()

    @property
    def partitioner_name(self) -> str:
        if self.partitioner is None:
            return "?"
        return getattr(self.partitioner, "name",
                       type(self.partitioner).__name__)

    # ------------------------------------------------------------------
    def observe(self, vertex: int, neighbors: np.ndarray, pid: int,
                margin: float | None = None) -> None:
        """Account one committed placement (call *after* the commit).

        Fed by the placement kernel's ``commit`` — the path production
        runs, sequential or grouped.  ``margin`` is the
        argmax-vs-runner-up score gap (``None`` when there was no
        runner-up to compare against); the kernel guarantees it finite,
        so no NaN/inf screening happens here.
        """
        if len(neighbors):
            memo = self.state.consume_neighbor_counts(neighbors)
            if memo is not None:
                counts, resolved = memo
                cut = resolved - int(counts[pid])
            else:
                # Scoring didn't tally neighbors (e.g. Hash/Range):
                # reconstruct the pre-commit view, excluding a possible
                # self-loop (v is already routed by now).
                state = self.state
                parts = state.route[neighbors[neighbors != vertex]]
                placed = parts[parts != UNASSIGNED]
                resolved = int(placed.size)
                cut = int(np.count_nonzero(placed != pid))
            self.resolved_edges += resolved
            self.cut_edges += cut
        if margin is not None:
            self._window_margin_sum += margin
            self._window_margin_n += 1
            if margin < self._window_margin_min:
                self._window_margin_min = margin
        self.placements += 1
        if self.placements % self.every == 0:
            self._emit_window()

    # ------------------------------------------------------------------
    def _gauges(self) -> dict[str, Any]:
        hook = getattr(self.partitioner, "_probe_gauges", None)
        if hook is None:
            return {}
        return dict(hook())

    def _load_skew(self) -> float:
        state = self.state
        placed = state.placed_vertices
        if placed == 0:
            return 1.0
        ideal = placed / state.num_partitions
        return float(state.vertex_counts.max() / ideal)

    def ecr_estimate(self) -> float | None:
        """Cut fraction over the resolved edges so far (None before any)."""
        if self.resolved_edges == 0:
            return None
        return self.cut_edges / self.resolved_edges

    def _emit_window(self) -> None:
        self.windows_emitted += 1
        state = self.state
        margin_mean = (self._window_margin_sum / self._window_margin_n
                       if self._window_margin_n else None)
        margin_min = (self._window_margin_min
                      if self._window_margin_n else None)
        record: dict[str, Any] = {
            "type": "stream_probe",
            "placements": self.placements,
            "window": self.windows_emitted,
            "elapsed_seconds": time.perf_counter() - self._start,
            "loads": state.vertex_counts.tolist(),
            "edge_loads": state.edge_counts.tolist(),
            "load_skew": self._load_skew(),
            "ecr_estimate": self.ecr_estimate(),
            "resolved_edges": self.resolved_edges,
            "cut_edges": self.cut_edges,
            "score_margin_mean": margin_mean,
            "score_margin_min": margin_min,
            "partitioner": self.partitioner_name,
        }
        record.update(self._gauges())
        self.instrumentation.emit(record)
        self._window_margin_sum = 0.0
        self._window_margin_min = math.inf
        self._window_margin_n = 0

    def finish(self, elapsed_seconds: float | None = None) -> None:
        """Emit the terminal ``stream_summary`` and update hub counters."""
        hub = self.instrumentation
        summary: dict[str, Any] = {
            "type": "stream_summary",
            "placements": self.placements,
            "elapsed_seconds": (elapsed_seconds
                                if elapsed_seconds is not None
                                else time.perf_counter() - self._start),
            "ecr_estimate": self.ecr_estimate(),
            "resolved_edges": self.resolved_edges,
            "cut_edges": self.cut_edges,
            "capacity_overflows": int(
                getattr(self.state, "capacity_overflows", 0)),
            "partitioner": self.partitioner_name,
        }
        gauges = self._gauges()
        for key in ("expectation_table_entries", "expectation_table_bytes"):
            if key in gauges:
                summary[key] = gauges[key]
        hub.emit(summary)
        hub.count("stream.placements", self.placements)
        hub.count("stream.windows", self.windows_emitted)
        hub.gauge("stream.ecr_estimate", self.ecr_estimate())
        hub.gauge("stream.load_skew", self._load_skew())
