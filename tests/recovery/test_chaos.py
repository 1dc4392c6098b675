"""Seeded chaos suite (``pytest -m chaos``).

Each test injects a fault the runtime claims to survive — a mid-pass
crash, a torn snapshot, a flaky disk, a dying worker, a garbage feed —
and asserts the documented recovery behavior, deterministically.
"""

import multiprocessing
import multiprocessing.util
import os
import time

import numpy as np
import pytest

from repro.graph import GraphStream, community_web_graph, write_adjacency
from repro.observability import Instrumentation, MemorySink
from repro.parallel import (
    ProcessShardedPartitioner,
    SimulatedParallelPartitioner,
    WorkerCrashedError,
)
from repro.partitioning import SPNLPartitioner
from repro.partitioning.registry import make_partitioner
from repro.recovery import (
    ErrorBudgetExceeded,
    IngestionPolicy,
    SnapshotError,
    latest_snapshot,
    partition_with_checkpoints,
    resume_partition,
)
from repro.recovery.chaos import (
    CrashingStream,
    FlakyFileStream,
    InjectedCrash,
    tear_snapshot,
)

pytestmark = pytest.mark.chaos

K = 4


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(400, avg_degree=8, seed=13)


@pytest.fixture(scope="module")
def baseline(graph):
    return SPNLPartitioner(K).partition(GraphStream(graph)).assignment.route


class TestCrashResume:
    @pytest.mark.parametrize("crash_at", (120, 255, 399))
    def test_killed_run_resumes_byte_identically(self, graph, baseline,
                                                 tmp_path, crash_at):
        # The "process" dies mid-pass; the snapshots it managed to write
        # survive.  A fresh partitioner resumes from the newest one and
        # must land exactly where the never-crashed run lands.
        doomed = CrashingStream(GraphStream(graph), crash_at=crash_at)
        with pytest.raises(InjectedCrash):
            partition_with_checkpoints(SPNLPartitioner(K), doomed,
                                       tmp_path, every=100)
        snap = latest_snapshot(tmp_path)
        assert snap is not None
        result = resume_partition(SPNLPartitioner(K), GraphStream(graph),
                                  snap)
        np.testing.assert_array_equal(result.assignment.route, baseline)

    def test_torn_snapshot_refused_loudly(self, graph, tmp_path):
        partition_with_checkpoints(SPNLPartitioner(K), GraphStream(graph),
                                   tmp_path, every=100)
        snap = latest_snapshot(tmp_path)
        tear_snapshot(snap, keep_fraction=0.5)
        with pytest.raises(SnapshotError):
            resume_partition(SPNLPartitioner(K), GraphStream(graph), snap)


class TestFlakyDisk:
    def test_transient_read_failures_are_retried(self, graph, tmp_path,
                                                 baseline):
        path = tmp_path / "g.adj"
        write_adjacency(graph, path)
        stream = FlakyFileStream(path, failure_rate=0.02, max_failures=3,
                                 seed=5, retries=5, retry_backoff=0.0)
        result = SPNLPartitioner(K).partition(stream)
        assert stream.failures_injected == 3  # the chaos actually fired
        # Exactly-once delivery despite retries: identical to a calm disk.
        np.testing.assert_array_equal(result.assignment.route, baseline)

    def test_persistent_failures_exhaust_retries(self, graph, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(graph, path)
        stream = FlakyFileStream(path, failure_rate=1.0, max_failures=10**9,
                                 seed=0, retries=2, retry_backoff=0.0)
        with pytest.raises(OSError, match="injected"):
            SPNLPartitioner(K).partition(stream)


class _DiesOnVertex(SPNLPartitioner):
    """SPNL whose reference ``_score`` — what pool workers call — raises
    on one vertex.

    Without a ``marker`` every attempt raises: a poison record.  With
    one, only the first attempt anywhere raises: it creates the marker
    file, which a respawned worker (a fresh fork that cannot remember
    its predecessor dying) finds and scores past.
    """

    def __init__(self, *args, vertex=50, marker=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.vertex = vertex
        self.marker = marker

    def _score(self, record, state):
        if record.vertex == self.vertex and self._dies():
            raise InjectedCrash(
                f"injected worker death scoring vertex {self.vertex}")
        return super()._score(record, state)

    def _dies(self) -> bool:
        if self.marker is None:
            return True
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return False
        return True


class _FirstVictimLingers(_DiesOnVertex):
    """A poison record whose first victim is slow to exit after it has
    reported its error, as a worker can be under CPU contention."""

    def __init__(self, *args, marker, linger, **kwargs):
        super().__init__(*args, **kwargs)
        self.linger_marker = marker
        self.linger = linger

    def _score(self, record, state):
        if record.vertex == self.vertex:
            try:
                os.close(os.open(self.linger_marker,
                                 os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:  # runs as the worker process exits
                multiprocessing.util.Finalize(
                    None, time.sleep, args=(self.linger,), exitpriority=0)
        return super()._score(record, state)


class TestDyingWorkers:
    """A pool worker that raises while scoring is respawned within the
    restart budget; past it the run fails loudly, leaving no worker
    process and no shared-memory segment behind."""

    def test_transient_worker_death_is_survived(self, graph, tmp_path,
                                                shm_leak_check):
        reference = SimulatedParallelPartitioner(
            SPNLPartitioner(K, num_shards=1),
            parallelism=4).partition(GraphStream(graph))
        executor = ProcessShardedPartitioner(
            _DiesOnVertex(K, num_shards=1, marker=tmp_path / "died"),
            parallelism=4, num_workers=2, max_worker_restarts=2,
            restart_backoff=0.0)
        sink = MemorySink()
        with Instrumentation([sink]) as hub:
            result = executor.partition(GraphStream(graph),
                                        instrumentation=hub)
        assert result.stats["worker_restarts"] == 1
        # Re-scoring is idempotent: the survivor is byte-identical.
        np.testing.assert_array_equal(result.assignment.route,
                                      reference.assignment.route)
        (restart,) = [r for r in sink.records
                      if r["type"] == "worker_restart"]
        assert "vertex 50" in restart["error"]
        assert multiprocessing.active_children() == []

    def test_poison_record_exhausts_budget_and_surfaces(self, graph,
                                                        shm_leak_check):
        executor = ProcessShardedPartitioner(
            _DiesOnVertex(K, num_shards=1), parallelism=4,
            num_workers=2, max_worker_restarts=2, restart_backoff=0.0)
        with pytest.raises(WorkerCrashedError,
                           match="restart budget.*injected worker "
                                 "death scoring vertex 50"):
            executor.partition(GraphStream(graph))
        assert multiprocessing.active_children() == []

    def test_a_replaced_worker_is_reaped_before_the_error_surfaces(
            self, graph, tmp_path, shm_leak_check):
        # The first victim is replaced, so only the respawn can join it;
        # it is still exiting when the budget runs out two deaths later.
        executor = ProcessShardedPartitioner(
            _FirstVictimLingers(K, num_shards=1,
                                marker=tmp_path / "lingered", linger=1.0),
            parallelism=4, num_workers=2, max_worker_restarts=2,
            restart_backoff=0.0)
        with pytest.raises(WorkerCrashedError, match="restart budget"):
            executor.partition(GraphStream(graph))
        assert multiprocessing.active_children() == []


class TestGarbageFeed:
    def _write_dirty(self, path, bad_lines):
        rows = []
        for v in range(100):
            rows.append(f"{v} {(v + 1) % 100}")
        for line_no in bad_lines:
            rows[line_no] = f"{line_no} garbage-token"
        path.write_text("\n".join(rows) + "\n")

    def test_quarantine_under_budget(self, tmp_path):
        path = tmp_path / "dirty.adj"
        self._write_dirty(path, bad_lines=(10, 40, 70))
        from repro.graph import read_adjacency

        policy = IngestionPolicy("lenient",
                                 quarantine=tmp_path / "q.tsv",
                                 max_errors=5)
        graph = read_adjacency(path, policy=policy)
        policy.close()
        assert policy.errors_total == 3
        assert graph.num_vertices == 100
        lines = (tmp_path / "q.tsv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split("\t")[1] == "11"  # 1-based line number

    def test_budget_exceeded_fails_loudly(self, tmp_path):
        path = tmp_path / "dirty.adj"
        self._write_dirty(path, bad_lines=tuple(range(0, 50)))
        from repro.graph import read_adjacency

        policy = IngestionPolicy("lenient", max_errors=10)
        with pytest.raises(ErrorBudgetExceeded, match="budget"):
            read_adjacency(path, policy=policy)


class TestOverflowPolicy:
    def _full_state(self, overflow):
        from repro.graph.digraph import AdjacencyRecord
        from repro.partitioning.base import PartitionState

        # capacity = ceil(slack * 10 / 2) = 5 per partition; fill both.
        state = PartitionState(2, 10, 0, slack=1.0, overflow=overflow)
        empty = np.empty(0, dtype=np.int64)
        for v in range(10):
            state.commit(AdjacencyRecord(v, empty), v % 2)
        return state

    def test_strict_overflow_raises(self):
        from repro.partitioning.base import CapacityOverflowError

        part = make_partitioner("ldg", 2, slack=1.0, overflow="strict")
        state = self._full_state("strict")
        with pytest.raises(CapacityOverflowError, match="capacity"):
            part.choose(np.array([1.0, 2.0]), state)

    def test_least_loaded_absorbs_overflow(self):
        part = make_partitioner("ldg", 2, slack=1.0)
        state = self._full_state("least-loaded")
        pid = part.choose(np.array([1.0, 2.0]), state)
        assert pid in (0, 1)
        assert state.capacity_overflows == 1
