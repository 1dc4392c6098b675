"""Unit tests for the edge-partitioning substrate."""

import numpy as np
import pytest

from repro.edgepart import (
    EdgeAssignment,
    EdgePartitionState,
    HDRFPartitioner,
    edge_stream,
    evaluate_edges,
)
from repro.graph import from_edges


class TestEdgeStream:
    def test_storage_order(self, tiny_graph):
        edges = list(edge_stream(tiny_graph))
        assert edges == list(tiny_graph.edges())
        assert edges[0][0] <= edges[-1][0]  # grouped by source


class TestEdgePartitionState:
    def test_place_updates_replicas(self):
        state = EdgePartitionState(3, 10)
        state.place(0, 5, 2)
        assert state.replica_mask(0)[2]
        assert state.replica_mask(5)[2]
        assert state.edge_loads[2] == 1
        assert state.partial_degrees[0] == 1

    def test_replication_factor(self):
        state = EdgePartitionState(3, 10)
        state.place(0, 1, 0)
        state.place(0, 2, 1)  # vertex 0 now in two partitions
        # replicas: 0 -> 2, 1 -> 1, 2 -> 1 → RF = 4/3
        assert state.replication_factor() == pytest.approx(4 / 3)

    def test_rf_ignores_untouched_vertices(self):
        state = EdgePartitionState(2, 100)
        state.place(0, 1, 0)
        assert state.replication_factor() == 1.0

    def test_load_balance(self):
        state = EdgePartitionState(2, 10)
        state.place(0, 1, 0)
        state.place(1, 2, 0)
        state.place(2, 3, 0)
        state.place(3, 4, 1)
        assert state.load_balance() == pytest.approx(1.5)

    def test_invalid_pid(self):
        state = EdgePartitionState(2, 10)
        with pytest.raises(ValueError):
            state.place(0, 1, 5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            EdgePartitionState(0, 10)


class TestDriver:
    def test_all_edges_assigned(self, edge_graph):
        result = HDRFPartitioner(4).partition(edge_graph)
        assert result.assignment.num_edges == edge_graph.num_edges
        assert result.assignment.edge_counts().sum() == \
            edge_graph.num_edges

    def test_capacity_respected(self, edge_graph):
        result = HDRFPartitioner(4, slack=1.1).partition(edge_graph)
        counts = result.assignment.edge_counts()
        assert counts.max() <= np.ceil(1.1 * edge_graph.num_edges / 4)

    def test_evaluate_validates_coverage(self, tiny_graph):
        bad = EdgeAssignment(np.zeros(2, dtype=np.int32), 2,
                             np.zeros((5, 2), dtype=bool))
        with pytest.raises(ValueError, match="covers"):
            evaluate_edges(tiny_graph, bad)

    def test_deterministic(self, edge_graph):
        a = HDRFPartitioner(4).partition(edge_graph)
        b = HDRFPartitioner(4).partition(edge_graph)
        assert np.array_equal(a.assignment.edge_pids,
                              b.assignment.edge_pids)

    def test_report_fields(self, tiny_graph):
        result = HDRFPartitioner(2).partition(tiny_graph)
        report = evaluate_edges(tiny_graph, result.assignment)
        assert report.replication_factor >= 1.0
        assert report.load_balance >= 1.0
        assert "RF" in report.as_row()
