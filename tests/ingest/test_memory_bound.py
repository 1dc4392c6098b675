"""The ingest path's memory is a multiple of the block, not of the file.

Two bounds, both by ``tracemalloc`` (which sees numpy's buffers):

* tokenizing one block peaks under 20 bytes per input byte — for a
  realistic adjacency block and for the blocks that take the tokenizer's
  other branches (every token one digit, nothing but comments, CRLF,
  malformed and over-long lines blanked out of a copy);
* a whole ``FileStream`` → SPNL ``num_shards=8`` pass peaks at the
  partitioner's own state, which :func:`repro.memory.model.spnl_bytes`
  predicts, plus a constant of that block size — at 5k, 20k and 80k
  vertices, while the file grows from 0.3 to 6 MB.

And two for the batch path, which holds the graph: ``read_adjacency``
peaks at no more than twice the CSR it returns plus that block
constant (the row pieces and the stitched CSR; no ``(src, dst)`` pairs,
no sort key over every edge, also when one line takes ``int()``'s
fallback path), and ``evaluate`` adds O(|V|) plus a
constant, never O(|E|).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PartitionConfig, community_web_graph
from repro.graph import DiGraph
from repro.graph.io import read_adjacency, write_adjacency
from repro.graph.stream import FileStream
from repro.ingest.chunked import DEFAULT_CHUNK_BYTES, _tokenize_block
from repro.memory.model import spnl_bytes
from repro.memory.tracker import measure_peak
from repro.partitioning.assignment import PartitionAssignment
from repro.partitioning.metrics import evaluate

BYTES_PER_INPUT_BYTE = 20
K, SHARDS = 32, 8


def _traced_peak(fn) -> int:
    return measure_peak(fn)[1]


def _fill(line: bytes) -> bytes:
    return line * (DEFAULT_CHUNK_BYTES // len(line))


@pytest.fixture(scope="module")
def adjacency_block(tmp_path_factory):
    path = tmp_path_factory.mktemp("bound") / "g.adj"
    write_adjacency(community_web_graph(4000, seed=7), path)
    data = path.read_bytes()
    return data[:data.rfind(b"\n", 0, DEFAULT_CHUNK_BYTES) + 1]


BLOCKS = {
    "one-digit tokens": _fill(b"0 1 2 3 4 5 6 7 8 9\n"),
    "comments only": _fill(b"# 12 34\n%\n  // x\n"),
    "crlf": _fill(b"10 11 12 13\r\n"),
    "bare cr": _fill(b"10 11 12 13\r"),
    "blanked lines": _fill(b"1 2 3\n4 +5 x\n6 1000000000000000000 7\n# c\n"),
    "edge list": _fill(b"123456 654321\n"),
}


class TestTokenizerBlock:
    def test_adjacency_block(self, adjacency_block):
        assert len(adjacency_block) > DEFAULT_CHUNK_BYTES // 2
        peak = _traced_peak(lambda: _tokenize_block(adjacency_block, 1))
        assert peak <= BYTES_PER_INPUT_BYTE * len(adjacency_block)

    @pytest.mark.parametrize("name", BLOCKS)
    def test_other_branches(self, name):
        block = BLOCKS[name]
        peak = _traced_peak(lambda: _tokenize_block(block, 1))
        assert peak <= BYTES_PER_INPUT_BYTE * len(block), \
            peak / len(block)


def test_stream_pass_peak_is_state_plus_a_block(tmp_path):
    """``spnl_bytes`` counts the route table and the window Γ, 20 of the
    about 28 bytes per vertex the implementation holds (SPNL's two |V|
    images are not in Table IV); at these sizes the constant absorbs the
    rest, and the scale ladder of ROADMAP item 6 owns that slope."""
    constant = BYTES_PER_INPUT_BYTE * DEFAULT_CHUNK_BYTES + (1 << 20)
    config = PartitionConfig(method="spnl", num_partitions=K,
                             num_shards=SHARDS)
    peaks, models, sizes = [], [], []
    for n in (1000, 5000, 20000, 80000):  # the first warms every import
        graph = community_web_graph(n, seed=7)
        path = tmp_path / f"g{n}.adj"
        write_adjacency(graph, path)
        max_degree = graph.max_out_degree()
        del graph

        def one_pass():
            result = config.make().partition(FileStream(path))
            assert result.placements == n

        peaks.append(_traced_peak(one_pass))
        models.append(spnl_bytes(n, K, max_degree, SHARDS).total_bytes)
        sizes.append(path.stat().st_size)
        path.unlink()
    for peak, model in zip(peaks[1:], models[1:]):
        assert peak <= model + constant, (peak, model)
    # 16x the vertices and 19x the file: the peak grows like the state.
    assert sizes[-1] > 15 * sizes[1]
    assert peaks[-1] - peaks[1] <= 1.5 * (models[-1] - models[1])


@pytest.fixture(scope="module", params=[5000, 20000])
def batch_graph(request, tmp_path_factory):
    """The benchmark's file shape: every row's neighbours shuffled, so
    the reader sorts each row."""
    graph = community_web_graph(request.param, seed=7)
    rng = np.random.default_rng(11)
    row_of_edge = np.repeat(np.arange(graph.num_vertices),
                            graph.out_degrees())
    order = np.lexsort((rng.random(graph.num_edges), row_of_edge))
    path = tmp_path_factory.mktemp("batch") / f"g{request.param}.adj"
    write_adjacency(DiGraph(graph.indptr, graph.indices[order]), path)
    return graph, path


class TestBatchPath:
    def test_read_adjacency_holds_the_graph_about_once(self, batch_graph):
        graph, path = batch_graph
        parsed, peak = measure_peak(lambda: read_adjacency(path))
        assert parsed == graph
        constant = BYTES_PER_INPUT_BYTE * DEFAULT_CHUNK_BYTES
        assert peak <= 2 * parsed.nbytes() + constant, \
            peak / parsed.nbytes()

    def test_evaluate_does_not_grow_with_the_edges(self, batch_graph):
        graph, _ = batch_graph
        assignment = PartitionAssignment(
            np.arange(graph.num_vertices) % K, K)
        report, peak = measure_peak(lambda: evaluate(graph, assignment))
        assert report.num_cut_edges > 0
        assert peak <= 16 * graph.num_vertices + (1 << 20), peak

    def test_a_fallback_line_keeps_the_bound(self, batch_graph, tmp_path):
        # One ``+`` sign sends its line to int(); the row still joins the
        # CSR pieces instead of turning every edge into a (src, dst) pair.
        graph, path = batch_graph
        lines = path.read_bytes().split(b"\n")
        row = next(i for i, line in enumerate(lines)
                   if line[:1].isdigit() and b" " in line)
        head, _, tail = lines[row].partition(b" ")
        lines[row] = head + b" +" + tail
        signed = tmp_path / path.name
        signed.write_bytes(b"\n".join(lines))
        parsed, peak = measure_peak(lambda: read_adjacency(signed))
        reference = read_adjacency(signed, engine="python")
        assert parsed.indptr.tobytes() == reference.indptr.tobytes()
        assert parsed.indices.tobytes() == reference.indices.tobytes()
        assert parsed == graph
        constant = BYTES_PER_INPUT_BYTE * DEFAULT_CHUNK_BYTES
        assert peak <= 2 * parsed.nbytes() + constant, \
            peak / parsed.nbytes()
