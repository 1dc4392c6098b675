"""Tests for the double-buffered background prefetch reader.

:class:`PrefetchStream` must be observably indistinguishable from
:class:`FileStream` — same records, same ``tell()``/``seek()`` record
semantics, same strict-mode error surfacing — while doing its reads on
a producer thread.  Checkpoint/resume byte-identity rides on the seek
contract, so it gets pinned here at awkward mid-chunk positions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import FileStream, community_web_graph, write_adjacency
from repro.graph.stream import GraphStream
from repro.ingest.prefetch import PrefetchStream
from repro.partitioning.registry import make_partitioner
from repro.recovery.checkpoint import (
    latest_snapshot,
    partition_with_checkpoints,
    resume_partition,
)


@pytest.fixture(scope="module")
def adj_file(tmp_path_factory):
    graph = community_web_graph(800, seed=3, name="pf800")
    path = tmp_path_factory.mktemp("prefetch") / "g.adj"
    write_adjacency(graph, path)
    return path, graph


def _records(stream):
    return [(int(v), nbrs.tolist()) for v, nbrs in stream]


class TestIdentity:
    def test_matches_file_stream(self, adj_file):
        path, _ = adj_file
        assert _records(PrefetchStream(path)) == _records(FileStream(path))

    def test_totals_discovered(self, adj_file):
        path, graph = adj_file
        stream = PrefetchStream(path)
        assert stream.num_vertices == graph.num_vertices
        assert stream.num_edges == graph.num_edges

    def test_small_chunks(self, adj_file):
        """Chunk boundaries mid-row must not duplicate or drop records."""
        path, _ = adj_file
        fast = PrefetchStream(path, chunk_bytes=512)
        assert _records(fast) == _records(FileStream(path))


class TestSeekSemantics:
    @pytest.mark.parametrize("position", [0, 1, 7, 123, 777, 799, 800])
    def test_seek_resumes_at_record(self, adj_file, position):
        path, _ = adj_file
        reference = _records(FileStream(path))
        stream = PrefetchStream(path, chunk_bytes=512)
        stream.seek(position)
        assert _records(stream) == reference[position:]

    def test_tell_unchanged_by_iteration(self, adj_file):
        """The _Seekable contract: iterating does not move the cursor."""
        path, _ = adj_file
        stream = PrefetchStream(path)
        stream.seek(5)
        _records(stream)
        assert stream.tell() == 5

    def test_tell_seek_round_trip(self, adj_file):
        path, _ = adj_file
        stream = PrefetchStream(path)
        for position in (0, 13, 799):
            stream.seek(position)
            assert stream.tell() == position

    def test_seek_past_end_rejected(self, adj_file):
        path, _ = adj_file
        with pytest.raises(ValueError, match="past the end"):
            PrefetchStream(path).seek(801)

    def test_early_close_no_deadlock(self, adj_file):
        path, _ = adj_file
        stream = PrefetchStream(path, depth=1, chunk_bytes=512)
        it = iter(stream)
        next(it)
        it.close()  # producer must unblock and join


class TestPartitionByteIdentity:
    @pytest.mark.parametrize("method", ["ldg", "fennel", "spn", "spnl"])
    def test_route_matches_graph_stream(self, adj_file, method):
        path, graph = adj_file
        ref = make_partitioner(method, 8).partition(
            GraphStream(graph), fast=False).assignment.route
        got = make_partitioner(method, 8).partition(
            PrefetchStream(path)).assignment.route
        np.testing.assert_array_equal(ref, got)

    @pytest.mark.parametrize("method", ["ldg", "spn"])
    def test_checkpoint_resume_mid_chunk(self, adj_file, method,
                                         tmp_path):
        """Resume from a snapshot at a position that lands mid-chunk in
        the prefetch reader's block structure — the resumed run must be
        byte-identical to the uninterrupted one."""
        path, graph = adj_file
        ref = make_partitioner(method, 8).partition(
            PrefetchStream(path)).assignment.route
        # 311 does not divide the chunk row counts at chunk_bytes=512.
        full = partition_with_checkpoints(
            make_partitioner(method, 8),
            PrefetchStream(path, chunk_bytes=512),
            tmp_path / "ckpt", every=311)
        np.testing.assert_array_equal(ref, full.assignment.route)
        snap = latest_snapshot(tmp_path / "ckpt")
        assert snap is not None
        resumed = resume_partition(
            make_partitioner(method, 8),
            PrefetchStream(path, chunk_bytes=512), snap)
        np.testing.assert_array_equal(ref, resumed.assignment.route)
        assert resumed.stats.get("resumed_from") == str(snap)

    def test_ingest_stats_attached(self, adj_file):
        path, _ = adj_file
        result = make_partitioner("ldg", 8).partition(PrefetchStream(path))
        stats = result.stats.get("ingest")
        assert stats is not None
        assert stats["records"] == 800
        assert stats["segments"] > 0
        assert stats["producer_busy_seconds"] >= 0.0


class TestErrors:
    def test_strict_error_ordering(self, tmp_path):
        """Records before the bad line arrive, then the seed error."""
        path = tmp_path / "bad.adj"
        path.write_text("0 1\n1 2\nbroken line\n3 0\n")
        stream = PrefetchStream(path, num_vertices=4, num_edges=3)
        seen = []
        with pytest.raises(ValueError, match="line 3"):
            for vertex, _ in stream:
                seen.append(int(vertex))
        assert seen == [0, 1]

    @pytest.mark.parametrize("stream_type", [FileStream, PrefetchStream])
    def test_file_reordered_since_the_scan_is_refused(self, tmp_path,
                                                      stream_type):
        """Both read through one segment reader, so a file that lost its
        id order after the pre-scan fails loud in either, instead of
        feeding a sliding window out-of-order ids."""
        path = tmp_path / "g.adj"
        path.write_text("0 1\n1 2\n2 0\n")
        stream = stream_type(path)
        assert stream.is_id_ordered
        path.write_text("0 1\n2 0\n1 2\n")
        seen = []
        with pytest.raises(ValueError, match="no longer id-ordered"):
            for vertex, _ in stream:
                seen.append(int(vertex))
        assert seen == [0, 2]
