"""Property-based tests for the edge-partitioning extension.

HDRF and SPNL-E share the invariants of edge partitioning, pinned here
across arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.edgepart import (
    HDRFPartitioner,
    SPNLEdgePartitioner,
    evaluate_edges,
)
from repro.graph import from_edges

_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_vertices=50, max_edges=200):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    return from_edges(zip(src[keep].tolist(), dst[keep].tolist()),
                      num_vertices=n, name=f"hyp{seed % 997}")


_EDGE_FACTORIES = [
    lambda k: HDRFPartitioner(k),
    lambda k: SPNLEdgePartitioner(k, num_shards=1),
]


class TestEdgePartitioningInvariants:
    @_SETTINGS
    @given(graph=graphs(), k=st.integers(1, 6),
           idx=st.integers(0, len(_EDGE_FACTORIES) - 1))
    def test_every_edge_assigned_once(self, graph, k, idx):
        result = _EDGE_FACTORIES[idx](k).partition(graph)
        assert result.assignment.num_edges == graph.num_edges
        assert result.assignment.edge_counts().sum() == graph.num_edges

    @_SETTINGS
    @given(graph=graphs(), k=st.integers(1, 6),
           idx=st.integers(0, len(_EDGE_FACTORIES) - 1))
    def test_replicas_cover_exactly_touched_partitions(self, graph, k,
                                                       idx):
        """A vertex is replicated in partition p iff some incident edge
        was assigned to p — the defining identity of edge partitioning."""
        result = _EDGE_FACTORIES[idx](k).partition(graph)
        expected = np.zeros((graph.num_vertices, k), dtype=bool)
        for (src, dst), pid in zip(graph.edges(),
                                   result.assignment.edge_pids):
            expected[src, pid] = True
            expected[dst, pid] = True
        assert np.array_equal(result.assignment.replicas, expected)

    @_SETTINGS
    @given(graph=graphs(), k=st.integers(1, 6))
    def test_rf_bounds(self, graph, k):
        if graph.num_edges == 0:
            return  # RF undefined (0 by convention) with no edges
        result = HDRFPartitioner(k).partition(graph)
        rf = evaluate_edges(graph, result.assignment).replication_factor
        assert 1.0 <= rf <= k
