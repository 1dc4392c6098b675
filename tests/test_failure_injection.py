"""Failure-injection tests: broken inputs, dying workers, bad streams.

Production partitioners fail loudly and early; these tests pin the
failure behavior rather than the happy path.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graph import (
    AdjacencyRecord,
    GraphStream,
    from_edges,
    read_adjacency,
    read_edge_list,
)
from repro.parallel import (
    ProcessShardedPartitioner,
    SimulatedParallelPartitioner,
    WorkerCrashedError,
)
from repro.partitioning import (
    LDGPartitioner,
    SPNLPartitioner,
    StreamingPartitioner,
)


class TestCorruptFiles:
    def test_garbage_tokens_in_edge_list(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_garbage_tokens_in_adjacency(self, tmp_path):
        path = tmp_path / "bad.adj"
        path.write_text("0 1 2\nnot-a-number 3\n")
        with pytest.raises(ValueError):
            read_adjacency(path)

    def test_negative_ids_rejected(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("0 -5\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_truncated_gzip(self, tmp_path):
        import gzip
        path = tmp_path / "g.adj.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0 1 2\n" * 100)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(Exception):  # EOFError / BadGzipFile
            read_adjacency(path)


class _ExplodingStream:
    """A stream that dies partway through (disk error, network drop)."""

    def __init__(self, graph, fail_after: int) -> None:
        self._graph = graph
        self.fail_after = fail_after
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self.is_id_ordered = True

    def __iter__(self):
        for i, record in enumerate(self._graph.records()):
            if i >= self.fail_after:
                raise IOError("stream source died")
            yield record


class _ExplodingPartitioner(StreamingPartitioner):
    """Scores fine until a poisoned vertex arrives."""

    def __init__(self, *args, poison: int = 10, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.poison = poison

    def _score(self, record, state):
        if record.vertex == self.poison:
            raise RuntimeError("scoring blew up")
        return np.zeros(state.num_partitions)

    def score_lanes(self):
        # Stateless scoring, so pool workers can run it too.
        return {}


class TestStreamFailures:
    def test_serial_propagates_stream_error(self, web_graph):
        stream = _ExplodingStream(web_graph, fail_after=50)
        with pytest.raises(IOError, match="died"):
            LDGPartitioner(4).partition(stream)

    @pytest.mark.parametrize("executor", [
        SimulatedParallelPartitioner, ProcessShardedPartitioner],
        ids=["simulated", "process"])
    def test_parallel_stream_error_surfaces(self, web_graph, executor,
                                            shm_leak_check):
        """A stream dying mid-pass must not hang a parallel executor;
        the stream's own error reaches the caller."""
        stream = _ExplodingStream(web_graph, fail_after=50)
        with pytest.raises(OSError, match="died"):
            executor(SPNLPartitioner(4, num_shards=1),
                     parallelism=4).partition(stream)
        assert multiprocessing.active_children() == []

    def test_process_worker_error_surfaces(self, web_graph,
                                           shm_leak_check):
        """With no restart budget the first scoring error in a pool
        worker ends the run, carrying the worker's message."""
        executor = ProcessShardedPartitioner(
            _ExplodingPartitioner(4, poison=25), parallelism=4,
            num_workers=2, max_worker_restarts=0)
        with pytest.raises(WorkerCrashedError, match="blew up"):
            executor.partition(GraphStream(web_graph))
        assert multiprocessing.active_children() == []

    def test_serial_worker_error_propagates(self, web_graph):
        with pytest.raises(RuntimeError, match="blew up"):
            _ExplodingPartitioner(4, poison=25).partition(
                GraphStream(web_graph))


class TestStateCorruptionGuards:
    def test_double_placement_rejected(self):
        from repro.partitioning import PartitionState
        state = PartitionState(2, 10, 0)
        record = AdjacencyRecord(3, np.array([], dtype=np.int64))
        state.commit(record, 0)
        with pytest.raises(ValueError, match="twice"):
            state.commit(record, 1)

    def test_route_table_with_oversized_pid_rejected(self):
        from repro.partitioning import PartitionAssignment
        with pytest.raises(ValueError):
            PartitionAssignment([0, 7], 4)

    def test_stream_shorter_than_declared_detected(self, web_graph):
        """A stream that under-delivers leaves unassigned vertices, and
        evaluation refuses to produce numbers for it."""
        class _Short(GraphStream):
            def __iter__(self):
                for i, record in enumerate(super().__iter__()):
                    if i >= 100:
                        return
                    yield record

        from repro.partitioning import evaluate
        result = LDGPartitioner(4).partition(_Short(web_graph))
        with pytest.raises(ValueError, match="unassigned"):
            evaluate(web_graph, result.assignment)
