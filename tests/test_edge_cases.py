"""Edge-case batch: small but sharp corners across the library."""

import pytest

from repro.graph import (
    DiGraph,
    GraphStream,
    from_edges,
    read_edge_list,
    write_edge_list,
)
from repro.partitioning import (
    PartitionAssignment,
    SPNLPartitioner,
    evaluate,
)


class TestGraphCorners:
    def test_declared_vertices_smaller_than_ids(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 9\n")
        with pytest.raises(ValueError, match="num_vertices"):
            read_edge_list(path, num_vertices=5)

    def test_large_sparse_ids(self):
        g = from_edges([(0, 99_999)], num_vertices=100_000)
        assert g.num_vertices == 100_000
        assert g.out_degree(0) == 1

    def test_write_edge_list_empty_graph(self, tmp_path):
        g = DiGraph.empty(3)
        path = tmp_path / "empty.edges"
        write_edge_list(g, path)
        assert read_edge_list(path, num_vertices=3) == g

    def test_self_loop_only_input(self):
        g = from_edges([(1, 1), (2, 2)], num_vertices=3)
        assert g.num_edges == 0  # loops dropped by default


class TestPartitioningCorners:
    def test_spnl_on_two_vertices(self):
        g = from_edges([(0, 1)], num_vertices=2)
        result = SPNLPartitioner(2, slack=1.0).partition(GraphStream(g))
        result.assignment.validate(2)

    def test_k_larger_than_vertices(self):
        g = from_edges([(0, 1), (1, 2)], num_vertices=3)
        result = SPNLPartitioner(8).partition(GraphStream(g))
        result.assignment.validate(3)
        # only 3 of the 8 partitions can be non-empty
        assert (result.assignment.vertex_counts() > 0).sum() <= 3

    def test_evaluate_single_vertex_graph(self):
        g = DiGraph.empty(1)
        q = evaluate(g, PartitionAssignment([0], 1))
        assert q.ecr == 0.0
        assert q.delta_v == 1.0
