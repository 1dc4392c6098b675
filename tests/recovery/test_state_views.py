"""``state_dict`` hands out the live arrays: the view contract.

A payload's arrays are the run's own (valid until the next commit), so
a snapshot streams Γ and the route table straight to the file with no
transient copy.  These tests pin the three halves of that contract:
the payload aliases the live state; ``load_state`` copies, so a payload
never ties two runs together; and a ``.snap`` written from the views is
byte-equal to one written from a deep copy of the same payload.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import PartitionConfig
from repro.graph import GraphStream, community_web_graph
from repro.partitioning.base import PlacementKernel
from repro.partitioning.expectation import FullExpectationStore
from repro.partitioning.registry import available_partitioners, make_partitioner
from repro.partitioning.window import SlidingWindowStore
from repro.recovery import checkpoint, partition_with_checkpoints

K = 4

#: Γ-store variants of the two heuristics that keep one.
GAMMA = {
    "dense": {},
    "window": {"num_shards": 4},
}

CASES = [(name, gamma)
         for name in available_partitioners(kind="vertex")
         for gamma in (GAMMA if name in ("spn", "spnl") else ["dense"])]


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(300, avg_degree=6, seed=5)


def _assert_same(left, right, path="payload"):
    assert type(left) is type(right), path
    if isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            _assert_same(left[key], right[key], f"{path}/{key}")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, path
        np.testing.assert_array_equal(left, right, err_msg=path)
    else:
        assert left == right, path


def _half_run(name, gamma, graph):
    """A partitioner and its state with the first half of ``graph``
    placed in id order."""
    partitioner = make_partitioner(name, K, **GAMMA[gamma])
    stream = GraphStream(graph)
    state = partitioner.make_state(stream)
    partitioner._setup(stream, state)
    kernel = PlacementKernel(partitioner, state)
    for v in range(graph.num_vertices // 2):
        kernel.commit(v, graph.out_neighbors(v))
    return partitioner, state


class TestPayloadIsTheLiveState:
    def test_gamma_table(self):
        store = FullExpectationStore(3, 10)
        store.record(1, np.array([2, 5, 9]))
        assert np.shares_memory(store.state_dict()["table"], store._table)

    def test_window_ring_is_transposed_into_a_copy(self):
        # The partition-major (K, W) on-disk layout needs the transpose.
        store = SlidingWindowStore(3, 12, num_shards=4)
        table = store.state_dict()["table"]
        assert table.shape == (3, 3) and table.flags.c_contiguous
        assert not np.shares_memory(table, store._table)

    def test_partition_state_and_lt_counts(self, graph):
        spnl, state = _half_run("spnl", "dense", graph)
        payload = spnl.state_dict(state)
        ps = payload["partition_state"]
        for key in ("route", "vertex_counts", "edge_counts"):
            assert np.shares_memory(ps[key], getattr(state, key)), key
        assert np.shares_memory(payload["heuristic"]["lt_counts"],
                                spnl._lt_counts)
        assert np.shares_memory(payload["heuristic"]["store"]["table"],
                                spnl.expectation_store._table)


@pytest.mark.parametrize("name,gamma", CASES)
def test_load_state_copies_so_runs_stay_apart(name, gamma, graph):
    a, a_state = _half_run(name, gamma, graph)
    payload = a.state_dict(a_state)
    before = copy.deepcopy(payload)
    b = make_partitioner(name, K, **GAMMA[gamma])
    b_state = b.load_state(GraphStream(graph), payload)
    kernel = PlacementKernel(b, b_state)
    for v in range(graph.num_vertices // 2, graph.num_vertices):
        kernel.commit(v, graph.out_neighbors(v))
    assert b_state.placed_vertices == graph.num_vertices
    _assert_same(a.state_dict(a_state), before)


@pytest.fixture
def twin_writes(monkeypatch, tmp_path):
    """Make every checkpoint write a second file from a deep copy of its
    payload; returns the list of ``(live file, copy file)`` bytes."""
    real = checkpoint.write_snapshot
    copies = tmp_path / "copies"
    copies.mkdir()
    pairs = []

    def write_twice(path, payload):
        real(path, payload)
        twin = copies / path.name
        real(twin, copy.deepcopy(payload))
        pairs.append((path.read_bytes(), twin.read_bytes()))

    monkeypatch.setattr(checkpoint, "write_snapshot", write_twice)
    return pairs


class TestViewsWriteTheSameFile:
    @pytest.mark.parametrize("gamma", GAMMA)
    def test_checkpoint_driver(self, gamma, graph, tmp_path, twin_writes):
        partition_with_checkpoints(
            make_partitioner("spnl", K, **GAMMA[gamma]), GraphStream(graph),
            tmp_path / "ckpt", every=70)
        assert len(twin_writes) == 4
        for live, deep in twin_writes:
            assert live == deep

    @pytest.mark.parametrize("gamma", GAMMA)
    def test_server_snapshot_op(self, gamma, graph, tmp_path, twin_writes):
        from repro.service.protocol import PROTOCOL_VERSION, encode_message
        from repro.service.server import PlacementService

        n = graph.num_vertices
        service = PlacementService(
            graph, config=PartitionConfig(method="spnl", num_partitions=K,
                                          **GAMMA[gamma]),
            snapshot_dir=tmp_path / "state", wal_fsync=False)
        try:
            for lo in range(0, n, 64):
                _, reply = service._handle_line(encode_message({
                    "protocol": PROTOCOL_VERSION, "id": lo,
                    "op": "place_batch",
                    "items": list(range(lo, min(lo + 64, n)))}))
                assert reply["ok"], reply
                if lo == 128:
                    _, reply = service._handle_line(encode_message({
                        "protocol": PROTOCOL_VERSION, "id": 0,
                        "op": "snapshot"}))
                    assert reply["ok"], reply
        finally:
            service.close()
        assert twin_writes
        for live, deep in twin_writes:
            assert live == deep
