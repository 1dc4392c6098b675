"""Analytic memory models for every partitioner (paper Table IV).

The paper's space-complexity comparison:

=====================  ==========================================
Method                 Space complexity
=====================  ==========================================
LDG / FENNEL           ``O(|V| + K + max_d)``
METIS / XtraPuLP       ``≥ O(|E|)`` (whole graph + intermediates)
SPN / SPNL (X = 1)     ``O(|V| + 2K + K|V| + max_d)``
SPN / SPNL (windowed)  ``O(|V| + 3K + K|V|/X + max_d)``
=====================  ==========================================

These models convert those complexities into byte estimates with explicit
element sizes so Table IV can be regenerated numerically, independent of
the interpreter's allocation noise.  :mod:`repro.memory.tracker` provides
the complementary *measured* numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryEstimate", "streaming_baseline_bytes", "spn_bytes",
           "spnl_bytes", "offline_bytes", "ROUTE_ENTRY_BYTES",
           "COUNTER_BYTES", "SCORE_BYTES"]

ROUTE_ENTRY_BYTES = 4   # int32 partition ids
COUNTER_BYTES = 4       # int32 expectation counters
SCORE_BYTES = 8         # float64 score vectors
ADJACENCY_BYTES = 8     # int64 vertex ids in adjacency storage


@dataclass(frozen=True)
class MemoryEstimate:
    """A byte estimate with its component breakdown."""

    method: str
    total_bytes: int
    breakdown: dict

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6

    def as_row(self) -> dict:
        return {"method": self.method,
                "MC(MB)": round(self.total_mb, 2),
                **{k: v for k, v in self.breakdown.items()}}


def streaming_baseline_bytes(num_vertices: int, num_partitions: int,
                             max_out_degree: int,
                             method: str = "LDG") -> MemoryEstimate:
    """LDG/FENNEL local view: route table + score vector + one record."""
    breakdown = {
        "route_table": num_vertices * ROUTE_ENTRY_BYTES,
        "score_vector": num_partitions * SCORE_BYTES,
        "record_buffer": max_out_degree * ADJACENCY_BYTES,
    }
    return MemoryEstimate(method, sum(breakdown.values()), breakdown)


def spn_bytes(num_vertices: int, num_partitions: int, max_out_degree: int,
              num_shards: int = 1, method: str = "SPN") -> MemoryEstimate:
    """SPN: the LDG view plus K expectation tables of |V|/X counters.

    This is the paper's ``K⌈|V|/X⌉``.  The measured windowed ring
    (:class:`~repro.partitioning.window.SlidingWindowStore`) holds two
    spare rows beside the window, ``2K`` counters more; the model does
    not count them.
    """
    base = streaming_baseline_bytes(num_vertices, num_partitions,
                                    max_out_degree, method)
    window = -(-num_vertices // max(1, num_shards))  # ceil division
    breakdown = dict(base.breakdown)
    breakdown["expectation_tables"] = (num_partitions * window
                                       * COUNTER_BYTES)
    return MemoryEstimate(method, sum(breakdown.values()), breakdown)


def spnl_bytes(num_vertices: int, num_partitions: int, max_out_degree: int,
               num_shards: int = 1) -> MemoryEstimate:
    """SPNL: SPN plus the O(2K) logical Range table and its counters."""
    base = spn_bytes(num_vertices, num_partitions, max_out_degree,
                     num_shards, method=f"SPNL(X={num_shards})")
    breakdown = dict(base.breakdown)
    # Range boundaries (K+1 ids) + |V^lt| counters (K) + η buffer (K).
    breakdown["logical_tables"] = (3 * num_partitions + 1) * SCORE_BYTES
    return MemoryEstimate(base.method, sum(breakdown.values()), breakdown)


def offline_bytes(num_vertices: int, num_edges: int,
                  method: str = "METIS",
                  hierarchy_factor: float = 2.0) -> MemoryEstimate:
    """METIS/XtraPuLP: the whole (undirected) graph plus intermediates.

    ``hierarchy_factor`` models the coarsening hierarchy (METIS) or the
    label/score arrays (XtraPuLP ≈ 1.3); both are ≥ the graph itself,
    matching the paper's ``≥ O(|E|)`` row.
    """
    graph_bytes = (2 * num_edges + num_vertices + 1) * ADJACENCY_BYTES
    breakdown = {
        "graph": graph_bytes,
        "intermediates": int(graph_bytes * (hierarchy_factor - 1.0)),
    }
    return MemoryEstimate(method, sum(breakdown.values()), breakdown)
