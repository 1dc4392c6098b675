"""Differential tests: chunked tokenizer vs the seed line-by-line parser.

The chunked engine is only a performance optimization — every observable
(parsed rows, built graphs, quarantine files, error messages, error
*types*) must match the seed ``engine="python"`` path byte for byte.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.graph.io import iter_adjacency_lines, read_adjacency, read_edge_list
from repro.ingest.chunked import (
    iter_adjacency_rows,
    iter_edge_chunks,
    scan_adjacency_stats,
)
from repro.recovery.lenient import IngestionPolicy

ADJ_TEXT = """\
# comment line
0 1 2
1 2

2 0
% another comment
3
4 0 1 2 3
"""

MESSY_TEXT = """\
0 1 2
not numbers at all
1 2
2 -1
3 0
4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _rows(events):
    return [(int(v), list(map(int, nbrs))) for v, nbrs in events]


class TestAdjacencyParity:
    def test_clean_file_rows_identical(self, tmp_path):
        path = _write(tmp_path, "g.adj", ADJ_TEXT)
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        fast = _rows(iter_adjacency_rows(path))
        assert fast == seed

    def test_no_trailing_newline(self, tmp_path):
        path = _write(tmp_path, "g.adj", ADJ_TEXT.rstrip("\n"))
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        fast = _rows(iter_adjacency_rows(path))
        assert fast == seed

    @pytest.mark.parametrize("chunk_bytes", [1, 3, 17, 64])
    def test_tiny_chunks_stress(self, tmp_path, chunk_bytes):
        """Rows split across chunk boundaries must reassemble exactly."""
        path = _write(tmp_path, "g.adj", ADJ_TEXT)
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        fast = _rows(iter_adjacency_rows(path, chunk_bytes=chunk_bytes))
        assert fast == seed

    def test_gzip_source(self, tmp_path):
        path = tmp_path / "g.adj.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(ADJ_TEXT)
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        fast = _rows(iter_adjacency_rows(path))
        assert fast == seed

    def test_graphs_byte_identical(self, tmp_path):
        path = _write(tmp_path, "g.adj", ADJ_TEXT)
        seed = read_adjacency(path, engine="python")
        fast = read_adjacency(path, engine="chunked")
        np.testing.assert_array_equal(seed.indptr, fast.indptr)
        np.testing.assert_array_equal(seed.indices, fast.indices)

    def test_lenient_quarantine_bytes_identical(self, tmp_path):
        path = _write(tmp_path, "m.adj", MESSY_TEXT)
        outputs = {}
        for engine in ("python", "chunked"):
            qpath = tmp_path / f"quarantine-{engine}.log"
            policy = IngestionPolicy("lenient", quarantine=qpath)
            rows = _rows(iter_adjacency_lines(path, policy=policy,
                                              engine=engine))
            policy.quarantine.close()
            outputs[engine] = (rows, qpath.read_text(),
                               policy.errors_total)
        assert outputs["python"] == outputs["chunked"]

    def test_strict_error_identical(self, tmp_path):
        path = _write(tmp_path, "m.adj", MESSY_TEXT)
        messages = {}
        for engine in ("python", "chunked"):
            with pytest.raises(ValueError) as err:
                list(iter_adjacency_lines(path, engine=engine))
            messages[engine] = str(err.value)
        assert messages["python"] == messages["chunked"]
        assert "line 2" in messages["python"]

    def test_overflow_escapes_lenient_mode_both_engines(self, tmp_path):
        """>int64 tokens raise OverflowError in the seed parser even in
        lenient mode (it is not a ValueError); the fast path matches."""
        path = _write(tmp_path, "o.adj", "0 1\n1 99999999999999999999\n")
        for engine in ("python", "chunked"):
            policy = IngestionPolicy("lenient")
            with pytest.raises(OverflowError):
                list(iter_adjacency_lines(path, policy=policy,
                                          engine=engine))

    def test_plus_sign_and_underscores_accepted(self, tmp_path):
        """``int()`` accepts ``+5`` and ``1_000`` — parity preserved."""
        path = _write(tmp_path, "p.adj", "+0 1_0 2\n")
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        fast = _rows(iter_adjacency_rows(path))
        assert fast == seed == [(0, [10, 2])]

    def test_bare_cr_ends_a_row(self, tmp_path):
        """Regression: ``\\r`` was classed as whitespace, so rows ended
        by a bare CR merged into one — silently, a different graph."""
        path = tmp_path / "cr.adj"
        path.write_bytes(b"0 1\r2 3\r")
        assert _rows(iter_adjacency_rows(path)) == [(0, [1]), (2, [3])]
        seed = read_adjacency(path, engine="python")
        fast = read_adjacency(path)
        np.testing.assert_array_equal(seed.indptr, fast.indptr)
        np.testing.assert_array_equal(seed.indices, fast.indices)
        assert scan_adjacency_stats(path) == (3, 2, True, 2)

    def test_value_count_is_checked_not_trusted(self, tmp_path, monkeypatch):
        """Should the evaluator ever return other tokens than the bytes
        hold, every row of the block goes to the per-line parser."""
        path = _write(tmp_path, "g.adj", ADJ_TEXT)
        seed = _rows(iter_adjacency_lines(path, engine="python"))
        real = np.fromstring
        monkeypatch.setattr(
            np, "fromstring", lambda *a, **kw: real(*a, **kw)[:-1])
        assert _rows(iter_adjacency_rows(path)) == seed
        assert scan_adjacency_stats(path) == (4, 8, True, 5)


class TestEdgeListParity:
    EDGES = "0 1\n1 2\n# c\n2 0\nbroken\n3 0\n"

    @pytest.mark.parametrize("text", [
        b"0 1\r1 2\r\n2 0\r", b"0 1\r7\r2 0", b"0 1\r\n1 x\r2 0\r"])
    def test_every_terminator(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_bytes(text)
        outcomes = []
        for engine in ("python", "chunked"):
            qpath = tmp_path / f"quarantine-{engine}.log"
            policy = IngestionPolicy("lenient", quarantine=qpath)
            graph = read_edge_list(path, policy=policy, engine=engine)
            policy.close()
            outcomes.append((graph.indptr.tolist(), graph.indices.tolist(),
                             qpath.read_bytes() if qpath.exists() else b""))
        assert outcomes[0] == outcomes[1]

    def test_lenient_graph_identical(self, tmp_path):
        path = _write(tmp_path, "g.edges", self.EDGES)
        graphs = {}
        for engine in ("python", "chunked"):
            policy = IngestionPolicy("lenient")
            graphs[engine] = read_edge_list(path, policy=policy,
                                            engine=engine)
        np.testing.assert_array_equal(graphs["python"].indptr,
                                      graphs["chunked"].indptr)
        np.testing.assert_array_equal(graphs["python"].indices,
                                      graphs["chunked"].indices)

    def test_strict_error_identical(self, tmp_path):
        path = _write(tmp_path, "g.edges", self.EDGES)
        messages = {}
        for engine in ("python", "chunked"):
            with pytest.raises(ValueError) as err:
                read_edge_list(path, engine=engine)
            messages[engine] = str(err.value)
        assert messages["python"] == messages["chunked"]

    def test_negative_ids_policy_handled(self, tmp_path):
        """Negative ids must be rejected *inside* the policy try-block
        with the seed message, in both engines."""
        path = _write(tmp_path, "n.edges", "0 1\n1 -2\n2 0\n")
        for engine in ("python", "chunked"):
            with pytest.raises(ValueError,
                               match="vertex ids must be non-negative"):
                read_edge_list(path, engine=engine)
            lenient = IngestionPolicy("lenient")
            graph = read_edge_list(path, policy=lenient, engine=engine)
            assert lenient.errors_total == 1
            assert graph.num_edges == 2

    def test_self_loops_do_not_extend_id_space(self, tmp_path):
        """A dropped self-loop on the max id must not widen the graph
        (seed ``add_edge`` returns before updating ``max_id``)."""
        path = _write(tmp_path, "s.edges", "0 1\n9 9\n")
        for engine in ("python", "chunked"):
            graph = read_edge_list(path, engine=engine)
            assert graph.num_vertices == 2
            assert graph.num_edges == 1

    def test_chunk_iterator_yields_int64_pairs(self, tmp_path):
        path = _write(tmp_path, "g.edges", "0 1\n1 2\n2 0\n")
        chunks = list(iter_edge_chunks(path))
        src = np.concatenate([s for s, _ in chunks])
        dst = np.concatenate([d for _, d in chunks])
        assert src.dtype == np.int64 and dst.dtype == np.int64
        assert list(zip(src.tolist(), dst.tolist())) == \
            [(0, 1), (1, 2), (2, 0)]


class TestScanStats:
    def test_stats_match_full_parse(self, tmp_path):
        path = _write(tmp_path, "g.adj", ADJ_TEXT)
        graph = read_adjacency(path, engine="python")
        max_id, num_edges, ordered, rows = scan_adjacency_stats(path)
        assert max_id == graph.num_vertices - 1
        assert num_edges == graph.num_edges
        assert ordered is True
        assert rows == 5

    def test_detects_unordered(self, tmp_path):
        path = _write(tmp_path, "u.adj", "1 0\n0 1\n")
        _max_id, _edges, ordered, rows = scan_adjacency_stats(path)
        assert ordered is False
        assert rows == 2
