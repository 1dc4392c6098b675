"""Unit tests for graph file formats (edge list, adjacency, gzip)."""

import pytest

from repro.graph import (
    from_edges,
    read_adjacency,
    read_edge_list,
    write_adjacency,
    write_edge_list,
)
from repro.graph.io import iter_adjacency_lines


class TestEdgeList:
    def test_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(tiny_graph, path)
        loaded = read_edge_list(path, num_vertices=5)
        assert loaded == tiny_graph

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n% more\n0 1\n\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edge_list(path)

    def test_gzip_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.edges.gz"
        write_edge_list(tiny_graph, path)
        assert read_edge_list(path, num_vertices=5) == tiny_graph


class TestAdjacency:
    def test_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(tiny_graph, path)
        assert read_adjacency(path) == tiny_graph

    def test_streaming_iteration(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(tiny_graph, path)
        rows = list(iter_adjacency_lines(path))
        assert [v for v, _ in rows] == [0, 1, 2, 3, 4]
        assert list(rows[0][1]) == [1, 2]

    def test_isolated_vertices_preserved(self, tmp_path):
        g = from_edges([(0, 1)], num_vertices=4)
        path = tmp_path / "g.adj"
        write_adjacency(g, path)
        assert read_adjacency(path).num_vertices == 4

    def test_skip_isolated_option(self, tmp_path):
        g = from_edges([(0, 1)], num_vertices=4)
        path = tmp_path / "g.adj"
        write_adjacency(g, path, include_isolated=False)
        rows = list(iter_adjacency_lines(path))
        assert len(rows) == 1

    def test_gzip_roundtrip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj.gz"
        write_adjacency(tiny_graph, path)
        assert read_adjacency(path) == tiny_graph
