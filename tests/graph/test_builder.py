"""Unit tests for GraphBuilder and the from_* helpers."""

import pytest

from repro.graph import GraphBuilder, from_adjacency, from_edges


class TestGraphBuilder:
    def test_basic_build(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_inferred_vertex_count(self):
        g = GraphBuilder().add_edge(0, 7).build()
        assert g.num_vertices == 8

    def test_fixed_vertex_count(self):
        g = GraphBuilder(num_vertices=10).add_edge(0, 1).build()
        assert g.num_vertices == 10

    def test_fixed_count_too_small_raises(self):
        builder = GraphBuilder(num_vertices=3).add_edge(0, 5)
        with pytest.raises(ValueError, match="num_vertices"):
            builder.build()

    def test_dedupe_default(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(0, 1).build()
        assert g.num_edges == 1

    def test_dedupe_disabled(self):
        g = GraphBuilder(dedupe=False).add_edge(0, 1).add_edge(0, 1).build()
        assert g.num_edges == 2

    def test_self_loops_dropped_by_default(self):
        g = GraphBuilder().add_edge(0, 0).add_edge(0, 1).build()
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_self_loops_kept_when_allowed(self):
        g = GraphBuilder(allow_self_loops=True).add_edge(0, 0).build()
        assert g.num_edges == 1
        assert g.has_edge(0, 0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GraphBuilder().add_edge(-1, 0)

    def test_rows_sorted_ascending(self):
        g = GraphBuilder().add_edges([(0, 5), (0, 2), (0, 9)]).build()
        assert list(g.out_neighbors(0)) == [2, 5, 9]

    def test_add_adjacency_extends_id_space(self):
        # An isolated vertex mentioned only as a row id still counts.
        g = GraphBuilder().add_adjacency(6, []).build()
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_empty_build(self):
        g = GraphBuilder().build()
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestHelpers:
    def test_from_edges(self):
        g = from_edges([(0, 1), (2, 0)])
        assert g.num_vertices == 3
        assert set(g.edges()) == {(0, 1), (2, 0)}

    def test_from_adjacency(self):
        g = from_adjacency({0: [1, 2], 2: [0]})
        assert set(g.edges()) == {(0, 1), (0, 2), (2, 0)}

    def test_from_edges_name(self):
        assert from_edges([(0, 1)], name="mygraph").name == "mygraph"
