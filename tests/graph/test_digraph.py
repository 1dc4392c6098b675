"""Unit tests for the CSR directed-graph substrate."""

import pickle

import numpy as np
import pytest

from repro.graph import AdjacencyRecord, DiGraph, from_edges


class TestConstruction:
    def test_valid_graph(self, tiny_graph):
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 6

    def test_empty_graph(self):
        g = DiGraph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.max_out_degree() == 0

    def test_zero_vertex_graph(self):
        g = DiGraph.empty(0)
        assert g.num_vertices == 0
        assert list(g.records()) == []

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start with 0"):
            DiGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_match_indices(self):
        with pytest.raises(ValueError, match="must equal len"):
            DiGraph(np.array([0, 2]), np.array([0]))

    def test_indptr_must_be_monotonic(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            DiGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_targets_must_be_in_range(self):
        with pytest.raises(ValueError, match="valid vertex ids"):
            DiGraph(np.array([0, 1]), np.array([5]))

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError, match="valid vertex ids"):
            DiGraph(np.array([0, 1]), np.array([-1]))

    def test_repr_mentions_sizes(self, tiny_graph):
        assert "|V|=5" in repr(tiny_graph)
        assert "|E|=6" in repr(tiny_graph)


class TestNeighborhoods:
    def test_out_neighbors(self, tiny_graph):
        assert list(tiny_graph.out_neighbors(0)) == [1, 2]
        assert list(tiny_graph.out_neighbors(2)) == [3]
        assert list(tiny_graph.out_neighbors(4)) == [0]

    def test_out_degrees_vector(self, tiny_graph):
        assert list(tiny_graph.out_degrees()) == [2, 1, 1, 1, 1]

    def test_in_degrees(self, tiny_graph):
        # in-edges: 0←4, 1←0, 2←{0,1}, 3←2, 4←3
        assert list(tiny_graph.in_degrees()) == [1, 1, 2, 1, 1]

    def test_in_neighbors_via_reverse(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(2)) == [0, 1]

    def test_max_out_degree(self, tiny_graph):
        assert tiny_graph.max_out_degree() == 2

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(4, 0)
        assert not tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(3, 3)


class TestIteration:
    def test_records_cover_all_vertices_in_order(self, tiny_graph):
        records = list(tiny_graph.records())
        assert [r.vertex for r in records] == [0, 1, 2, 3, 4]
        assert all(isinstance(r, AdjacencyRecord) for r in records)

    def test_record_unpacking(self, tiny_graph):
        v, neighbors = next(tiny_graph.records())
        assert v == 0
        assert list(neighbors) == [1, 2]

    def test_record_is_immutable(self):
        record = AdjacencyRecord(3, np.array([1, 2]))
        with pytest.raises(AttributeError):
            record.vertex = 4
        with pytest.raises(AttributeError):
            record.neighbors = np.array([5])
        assert record.vertex == 3 and record.out_degree == 2

    def test_record_pickle_round_trip(self):
        record = AdjacencyRecord(7, np.array([0, 9, 4], dtype=np.int64))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is AdjacencyRecord
        v, neighbors = copy
        assert v == 7 and copy.out_degree == 3
        np.testing.assert_array_equal(neighbors, record.neighbors)
        assert neighbors.dtype == np.int64

    def test_edges_iteration(self, tiny_graph):
        edges = set(tiny_graph.edges())
        assert edges == {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0)}

    def test_edge_array_matches_edges(self, tiny_graph):
        src, dst = tiny_graph.edge_array()
        assert set(zip(src.tolist(), dst.tolist())) == set(
            tiny_graph.edges())

    def test_edge_array_targets_are_the_graph_not_a_copy(self, tiny_graph):
        _, dst = tiny_graph.edge_array()
        assert np.shares_memory(dst, tiny_graph.indices)
        with pytest.raises(ValueError, match="read-only"):
            dst[0] = 0


class TestDerivedGraphs:
    def test_reverse_flips_edges(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert set(rev.edges()) == {(b, a) for a, b in tiny_graph.edges()}

    def test_reverse_is_cached(self, tiny_graph):
        assert tiny_graph.reverse() is tiny_graph.reverse()

    def test_double_reverse_roundtrips(self, tiny_graph):
        assert set(tiny_graph.reverse().reverse().edges()) == set(
            tiny_graph.edges())

    def test_undirected_symmetry(self, tiny_graph):
        und = tiny_graph.to_undirected_csr()
        edges = set(und.edges())
        assert all((b, a) in edges for a, b in edges)

    def test_undirected_dedupes_antiparallel(self):
        g = from_edges([(0, 1), (1, 0)], num_vertices=2)
        und = g.to_undirected_csr()
        assert und.num_edges == 2  # one entry per direction, no dupes

    def test_relabel_preserves_structure(self, tiny_graph):
        perm = [4, 3, 2, 1, 0]
        relabeled = tiny_graph.relabeled(perm)
        expected = {(perm[a], perm[b]) for a, b in tiny_graph.edges()}
        assert set(relabeled.edges()) == expected

    def test_relabel_identity(self, tiny_graph):
        same = tiny_graph.relabeled(range(5))
        assert same == tiny_graph

    def test_relabel_rejects_non_bijection(self, tiny_graph):
        with pytest.raises(ValueError, match="bijection"):
            tiny_graph.relabeled([0, 0, 1, 2, 3])

    def test_relabel_rejects_wrong_length(self, tiny_graph):
        with pytest.raises(ValueError, match="length"):
            tiny_graph.relabeled([0, 1, 2])


class TestEquality:
    def test_equal_graphs(self, tiny_graph):
        other = from_edges(list(tiny_graph.edges()), num_vertices=5)
        assert tiny_graph == other
        assert hash(tiny_graph) == hash(other)

    def test_unequal_graphs(self, tiny_graph):
        other = from_edges([(0, 1)], num_vertices=5)
        assert tiny_graph != other

    def test_read_only_views(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.indptr[0] = 99
        with pytest.raises(ValueError):
            tiny_graph.indices[0] = 99

    def test_nbytes_positive(self, tiny_graph):
        assert tiny_graph.nbytes() > 0
