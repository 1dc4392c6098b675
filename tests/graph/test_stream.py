"""Unit tests for the one-pass vertex streams."""

import numpy as np
import pytest

from repro.graph import FileStream, GraphStream, shuffled, write_adjacency


class TestGraphStream:
    def test_default_id_order(self, tiny_graph):
        stream = GraphStream(tiny_graph)
        assert [r.vertex for r in stream] == [0, 1, 2, 3, 4]
        assert stream.is_id_ordered

    def test_totals(self, tiny_graph):
        stream = GraphStream(tiny_graph)
        assert stream.num_vertices == 5
        assert stream.num_edges == 6

    def test_explicit_order(self, tiny_graph):
        stream = GraphStream(tiny_graph, order=[4, 3, 2, 1, 0])
        assert [r.vertex for r in stream] == [4, 3, 2, 1, 0]
        assert not stream.is_id_ordered

    def test_order_must_be_permutation(self, tiny_graph):
        with pytest.raises(ValueError, match="permutation"):
            GraphStream(tiny_graph, order=[0, 0, 1, 2, 3])

    def test_order_must_cover_all(self, tiny_graph):
        with pytest.raises(ValueError, match="every vertex"):
            GraphStream(tiny_graph, order=[0, 1, 2])

    def test_order_rejects_out_of_range(self, tiny_graph):
        """Regression: an id >= |V| used to escape as a raw IndexError
        from fancy indexing instead of a ValueError at construction."""
        with pytest.raises(ValueError, match="out-of-range"):
            GraphStream(tiny_graph, order=[0, 1, 2, 3, 7])

    def test_order_rejects_negative_ids(self, tiny_graph):
        """Regression: negative ids silently wrapped around (numpy
        fancy indexing), streaming the wrong vertices without error."""
        with pytest.raises(ValueError, match="out-of-range"):
            GraphStream(tiny_graph, order=[0, 1, 2, 3, -1])

    def test_order_rejects_wrong_shape(self, tiny_graph):
        with pytest.raises(ValueError, match="every vertex"):
            GraphStream(tiny_graph,
                        order=np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("bad", [
        [5, 0, 1, 2, 3],          # out of range
        [-5, 0, 1, 2, 3],         # negative
        [4, 4, 3, 2, 1],          # duplicate
        [],                        # wrong length
    ])
    def test_malformed_orders_never_raise_indexerror(self, tiny_graph,
                                                     bad):
        """Property: every malformed order is a ValueError, never a
        bare IndexError or a silently-wrong stream."""
        with pytest.raises(ValueError):
            GraphStream(tiny_graph, order=bad)

    def test_reiterable(self, tiny_graph):
        stream = GraphStream(tiny_graph)
        first = [r.vertex for r in stream]
        second = [r.vertex for r in stream]
        assert first == second

    def test_records_carry_neighbors(self, tiny_graph):
        record = next(iter(GraphStream(tiny_graph)))
        assert list(record.neighbors) == [1, 2]


class TestFileStream:
    def test_streams_file(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(tiny_graph, path)
        stream = FileStream(path)
        assert stream.num_vertices == 5
        assert stream.num_edges == 6
        assert [r.vertex for r in stream] == [0, 1, 2, 3, 4]

    def test_explicit_totals_skip_prescan(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(tiny_graph, path)
        stream = FileStream(path, num_vertices=5, num_edges=6)
        assert stream.num_vertices == 5

    def test_prescan_infers_max_id(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0 9\n")
        stream = FileStream(path)
        assert stream.num_vertices == 10
        assert stream.num_edges == 1

    def test_is_id_ordered(self, tiny_graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(tiny_graph, path)
        assert FileStream(path).is_id_ordered

    def test_unordered_file_reported_unordered(self, tmp_path):
        """Regression: is_id_ordered returned True unconditionally, so
        sliding-window consumers rotated against out-of-order ids."""
        path = tmp_path / "g.adj"
        path.write_text("2 0\n0 1\n1 2\n")
        assert not FileStream(path).is_id_ordered

    def test_unordered_file_with_explicit_totals(self, tmp_path):
        """Supplying totals skips the pre-scan; the ordering answer
        must come from a dedicated lazy scan, not a hard-coded True."""
        path = tmp_path / "g.adj"
        path.write_text("2 0\n0 1\n1 2\n")
        stream = FileStream(path, num_vertices=3, num_edges=3)
        assert not stream.is_id_ordered

    def test_duplicate_vertex_line_is_unordered(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0 1\n1 0\n1 2\n")
        assert not FileStream(path).is_id_ordered

    def test_unordered_file_still_streams(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("2 0\n0 1\n1 2\n")
        stream = FileStream(path)
        assert [r.vertex for r in stream] == [2, 0, 1]

    def test_file_mutated_after_ordered_prescan_fails_loud(self, tmp_path):
        """If the pre-scan saw an ordered file but iteration later
        observes disorder, the file changed underneath us — consumers
        sized from the stale claim must not proceed silently."""
        path = tmp_path / "g.adj"
        path.write_text("0 1\n1 2\n2 0\n")
        stream = FileStream(path)
        assert stream.is_id_ordered
        path.write_text("1 2\n0 1\n2 0\n")
        seen = []
        with pytest.raises(ValueError, match="no longer id-ordered "
                           r"\(vertex 0 arrived after 1\)"):
            for record in stream:
                seen.append(record.vertex)
        assert seen == [1]  # what precedes the disorder still arrives


class TestShuffled:
    def test_covers_all_vertices(self, tiny_graph):
        stream = shuffled(tiny_graph, seed=3)
        assert sorted(r.vertex for r in stream) == [0, 1, 2, 3, 4]

    def test_deterministic_per_seed(self, tiny_graph):
        a = [r.vertex for r in shuffled(tiny_graph, seed=3)]
        b = [r.vertex for r in shuffled(tiny_graph, seed=3)]
        assert a == b

    def test_different_seeds_differ(self, web_graph):
        a = [r.vertex for r in shuffled(web_graph, seed=1)]
        b = [r.vertex for r in shuffled(web_graph, seed=2)]
        assert a != b
