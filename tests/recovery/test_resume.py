"""Byte-identical checkpoint/resume for every streaming partitioner.

The acceptance bar: a run killed at an arbitrary record and resumed from
its latest snapshot produces the *byte-identical* route table to the run
that never crashed — on both execution paths (the vectorized fast path
over CSR arrays and the record-at-a-time path over a disk stream).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.graph import GraphStream, community_web_graph, write_adjacency
from repro.graph.stream import FileStream
from repro.partitioning.registry import (
    available_partitioners,
    make_partitioner,
    resolve,
)
from repro.partitioning.window import SlidingWindowStore
from repro.recovery import (
    CheckpointConfig,
    latest_snapshot,
    partition_with_checkpoints,
    read_snapshot,
    resume_partition,
    snapshot_path,
)

from .test_state_views import _assert_same

#: A checkpoint written by the ring of ``W`` rows (commit 9e90fba), before
#: the ring grew its two spare rows: ``SPNL(K=4, X=8)`` over a
#: ``FileStream`` of the module's graph, every 246 records; the first
#: snapshot.  ``TestWindowedResume.test_old_and_new_snapshots_agree``
#: compares it with today's snapshot at the same record.
OLD_WINDOW_SNAPSHOT = Path(__file__).parents[1] / "fixtures" \
    / "window_ckpt_246.snap"

STREAMING = tuple(n for n in available_partitioners()
                  if resolve(n).is_streaming)
K = 4


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(400, avg_degree=8, seed=7)


@pytest.fixture(scope="module")
def baselines(graph):
    """Uninterrupted single-call route tables, per method."""
    return {
        name: make_partitioner(name, K).partition(
            GraphStream(graph)).assignment.route
        for name in STREAMING
    }


class TestFastPathResume:
    """CSR-backed streams: segmented kernels + kernel rebuild on resume."""

    @pytest.mark.parametrize("name", STREAMING)
    def test_checkpointed_run_matches_plain_run(self, name, graph,
                                                baselines, tmp_path):
        result = partition_with_checkpoints(
            make_partitioner(name, K), GraphStream(graph),
            tmp_path, every=97, keep=100)
        np.testing.assert_array_equal(result.assignment.route,
                                      baselines[name])
        assert result.stats["checkpoints_written"] > 0

    @pytest.mark.parametrize("name", STREAMING)
    def test_resume_from_every_cut_point(self, name, graph, baselines,
                                         tmp_path):
        # One pass writes snapshots at several positions (keep them all),
        # then each snapshot seeds an independent fresh-process resume.
        partition_with_checkpoints(
            make_partitioner(name, K), GraphStream(graph),
            tmp_path, every=101, keep=100)
        snaps = sorted(tmp_path.glob("ckpt-*.snap"))
        assert len(snaps) >= 2
        for snap in snaps:
            resumed = resume_partition(
                make_partitioner(name, K), GraphStream(graph), snap,
                config=CheckpointConfig(tmp_path / "resumed", keep=100))
            np.testing.assert_array_equal(
                resumed.assignment.route, baselines[name],
                err_msg=f"{name} diverged resuming from {snap.name}")

    def test_resume_mid_stream_keeps_fast_path(self, graph, tmp_path):
        partition_with_checkpoints(
            make_partitioner("spnl", K), GraphStream(graph),
            tmp_path, every=150, keep=100)
        resumed = resume_partition(
            make_partitioner("spnl", K), GraphStream(graph),
            snapshot_path(tmp_path, 150))
        assert resumed.stats["fast_path"] is True


class TestRecordPathResume:
    """Disk streams (never CSR-convertible): the record-at-a-time loop."""

    @pytest.fixture(scope="class")
    def adj_file(self, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "g.adj"
        write_adjacency(graph, path)
        return path

    @pytest.mark.parametrize("name", ("ldg", "fennel", "spn", "spnl"))
    def test_file_stream_resume_matches(self, name, adj_file, graph,
                                        baselines, tmp_path):
        partition_with_checkpoints(
            make_partitioner(name, K), FileStream(adj_file),
            tmp_path, every=123, keep=100)
        for snap in sorted(tmp_path.glob("ckpt-*.snap")):
            resumed = resume_partition(
                make_partitioner(name, K), FileStream(adj_file), snap,
                config=CheckpointConfig(tmp_path / "r", keep=100))
            assert resumed.stats["fast_path"] is False
            np.testing.assert_array_equal(
                resumed.assignment.route, baselines[name],
                err_msg=f"{name} record-path resume from {snap.name}")


class TestWindowedResume:
    """``num_shards > 1``: the Γ ring, its cursor and the loss counters
    cross the checkpoint, in the partition-major ``(K, W)`` table every
    snapshot has held."""

    SHARDS = 8

    @pytest.fixture(scope="class")
    def adj_file(self, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("window") / "g.adj"
        write_adjacency(graph, path)
        return path

    def _make(self):
        return make_partitioner("spnl", K, num_shards=self.SHARDS)

    def test_file_stream_resume_matches_uninterrupted_run(
            self, adj_file, tmp_path):
        plain = self._make().partition(FileStream(adj_file))
        assert plain.stats["num_shards"] == self.SHARDS
        assert plain.stats["skipped_past"] and plain.stats["skipped_future"]
        partition_with_checkpoints(self._make(), FileStream(adj_file),
                                   tmp_path, every=123, keep=100)
        snaps = sorted(tmp_path.glob("ckpt-*.snap"))
        assert len(snaps) >= 2
        for snap in snaps:
            resumed = resume_partition(
                self._make(), FileStream(adj_file), snap,
                config=CheckpointConfig(tmp_path / "r", keep=100))
            assert resumed.stats["fast_path"] is False
            np.testing.assert_array_equal(
                resumed.assignment.route, plain.assignment.route,
                err_msg=f"windowed resume from {snap.name}")
            for key in ("skipped_past", "skipped_future"):
                assert resumed.stats[key] == plain.stats[key], snap.name

    def test_snapshot_table_is_partition_major(self, adj_file, graph,
                                               tmp_path):
        partition_with_checkpoints(self._make(), FileStream(adj_file),
                                   tmp_path, every=150)
        store = read_snapshot(
            snapshot_path(tmp_path, 150))["heuristic"]["store"]
        window = -(-graph.num_vertices // self.SHARDS)
        assert store["table"].shape == (K, window)
        assert store["low"] == 149  # the last vertex streamed

    def test_old_and_new_snapshots_agree(self, adj_file, tmp_path):
        """A snapshot the old ring wrote resumes to the uninterrupted
        run's routes, and today's snapshot at the same record holds the
        same payload, so the old ring reads it as its own."""
        plain = self._make().partition(FileStream(adj_file))
        resumed = resume_partition(
            self._make(), FileStream(adj_file), OLD_WINDOW_SNAPSHOT,
            config=CheckpointConfig(tmp_path / "r", keep=100))
        np.testing.assert_array_equal(resumed.assignment.route,
                                      plain.assignment.route)
        for key in ("skipped_past", "skipped_future"):
            assert resumed.stats[key] == plain.stats[key]
        partition_with_checkpoints(self._make(), FileStream(adj_file),
                                   tmp_path / "new", every=246)
        old = read_snapshot(OLD_WINDOW_SNAPSHOT)
        new = read_snapshot(snapshot_path(tmp_path / "new", 246))
        del old["elapsed_seconds"], new["elapsed_seconds"]
        _assert_same(new, old)

    def test_old_layout_payload_loads(self):
        """A payload as written before the ring went slot-major."""
        store = SlidingWindowStore(2, 12, num_shards=4)  # W = 3
        table = np.array([[0, 5, 0],
                          [7, 0, 1]], dtype=np.int32)  # [pid, id mod 3]
        store.load_state({"kind": "window", "num_shards": 4,
                          "window_size": 3, "table": table, "low": 4,
                          "skipped_future": 2, "skipped_past": 9})
        assert (store.low, store.high) == (4, 7)
        assert list(store.expectation_of(4)) == [5, 0]  # slot 1
        assert list(store.expectation_of(5)) == [0, 1]  # slot 2
        assert list(store.expectation_of(6)) == [0, 7]  # slot 0
        assert list(store.gather(np.array([3, 4, 6, 7]))) == [5, 7]
        assert (store.skipped_future, store.skipped_past) == (2, 9)
        np.testing.assert_array_equal(store.state_dict()["table"], table)

    def test_wrong_shape_payload_still_rejected(self):
        store = SlidingWindowStore(2, 12, num_shards=4)
        payload = store.state_dict()
        payload["table"] = np.zeros((3, 2), dtype=np.int32)  # slot-major
        with pytest.raises(ValueError, match=r"snapshot Γ ring shape "
                           r"\(3, 2\) does not match \(2, 3\)"):
            store.load_state(payload)


class TestResumeGuards:
    def test_wrong_partitioner_rejected(self, graph, tmp_path):
        partition_with_checkpoints(make_partitioner("spnl", K),
                                   GraphStream(graph), tmp_path, every=150)
        with pytest.raises(ValueError, match="SPNL"):
            resume_partition(make_partitioner("ldg", K),
                             GraphStream(graph), latest_snapshot(tmp_path))

    def test_wrong_k_rejected(self, graph, tmp_path):
        partition_with_checkpoints(make_partitioner("ldg", K),
                                   GraphStream(graph), tmp_path, every=150)
        with pytest.raises(ValueError):
            resume_partition(make_partitioner("ldg", K + 1),
                             GraphStream(graph), latest_snapshot(tmp_path))

    def test_snapshot_records_position_and_elapsed(self, graph, tmp_path):
        partition_with_checkpoints(make_partitioner("ldg", K),
                                   GraphStream(graph), tmp_path, every=150)
        payload = read_snapshot(snapshot_path(tmp_path, 150))
        assert payload["position"] == 150
        assert payload["partition_state"]["placed_vertices"] == 150
        assert payload["elapsed_seconds"] >= 0.0

    def test_pruning_keeps_newest(self, graph, tmp_path):
        partition_with_checkpoints(make_partitioner("ldg", K),
                                   GraphStream(graph), tmp_path,
                                   every=50, keep=2)
        snaps = sorted(p.name for p in tmp_path.glob("ckpt-*.snap"))
        assert len(snaps) == 2
        assert snaps[-1] == snapshot_path(tmp_path, 350).name

    def test_empty_directory_has_no_latest(self, tmp_path):
        assert latest_snapshot(tmp_path) is None
        assert latest_snapshot(tmp_path / "missing") is None
