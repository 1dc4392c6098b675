"""Process-sharded executor: parity, shared-memory plumbing, recovery.

The load-bearing guarantee is *byte-parity*: at the same ``parallelism``
(the paper's M) the process executor must place every vertex exactly
where :class:`SimulatedParallelPartitioner` places it, regardless of how
many worker processes the group is sharded over — and at ``parallelism=1``
it must match the plain sequential pass.  Everything else (SIGKILL
recovery, checkpoint/resume) is pinned *through* that parity: a recovered
run that differs by one byte from the clean run is a failure.
"""

import os
import signal

import numpy as np
import pytest

from repro.graph import GraphStream, community_web_graph
from repro.observability import Instrumentation, MemorySink
from repro.parallel import (
    ProcessShardedPartitioner,
    SharedArrayBlock,
    SimulatedParallelPartitioner,
    WorkerCrashedError,
)
from repro.partitioning import evaluate
from repro.partitioning.registry import make_partitioner
from repro.recovery import latest_snapshot
from repro.recovery import resume_partition as resume_sequential

K = 4

#: Streaming heuristics that declare score lanes and can shard.
SHARDED_METHODS = ("hash", "range", "ldg", "fennel", "spn", "spnl")


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(800, avg_degree=8, seed=7)


def _make(method, **kwargs):
    if method in ("spn", "spnl"):
        kwargs.setdefault("num_shards", 1)
    return make_partitioner(method, K, **kwargs)


# ----------------------------------------------------------------------
# Satellite: registry-wide parity suite
# ----------------------------------------------------------------------
class TestRegistryParity:
    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_p1_matches_sequential(self, graph, method):
        """One-wide groups are exactly the sequential record path."""
        seq = _make(method).partition(GraphStream(graph), fast=False)
        proc = ProcessShardedPartitioner(
            _make(method), parallelism=1, num_workers=1,
            use_rct=False).partition(GraphStream(graph))
        assert proc.assignment == seq.assignment

    @pytest.mark.parametrize("method", ("ldg", "fennel", "spn", "spnl"))
    def test_p1_matches_fast_path(self, graph, method):
        """... and therefore the fused fast path too (fast ≡ record is
        pinned elsewhere; this closes the triangle)."""
        fast = _make(method).partition(GraphStream(graph), fast=True)
        proc = ProcessShardedPartitioner(
            _make(method), parallelism=1, num_workers=1,
            use_rct=False).partition(GraphStream(graph))
        assert proc.assignment == fast.assignment

    @pytest.mark.parametrize("method", SHARDED_METHODS)
    def test_wide_groups_match_simulated(self, graph, method):
        """At M>1 the process executor is byte-identical to the
        deterministic simulated executor at the same M — the whole
        point of the group-barrier design."""
        sim = SimulatedParallelPartitioner(
            _make(method), parallelism=4).partition(GraphStream(graph))
        proc = ProcessShardedPartitioner(
            _make(method), parallelism=4,
            num_workers=2).partition(GraphStream(graph))
        assert proc.assignment == sim.assignment
        assert proc.stats["delayed"] == sim.stats["delayed"]
        assert proc.stats["conflicts"] == sim.stats["conflicts"]

    def test_worker_count_does_not_change_results(self, graph):
        """num_workers is a throughput knob only: same M, same bytes."""
        routes = []
        for workers in (1, 2, 3):
            p = ProcessShardedPartitioner(
                _make("spnl"), parallelism=6, num_workers=workers)
            routes.append(p.partition(GraphStream(graph)).assignment)
        assert routes[0] == routes[1] == routes[2]

    def test_ecr_stays_near_sequential(self, graph):
        """Paper Sec. V-B: RCT-delayed wide-parallel quality stays in
        the sequential ballpark (~6% cap in the paper's experiments)."""
        seq = evaluate(graph, _make("spnl").partition(
            GraphStream(graph)).assignment).ecr
        par = evaluate(graph, ProcessShardedPartitioner(
            _make("spnl"), parallelism=4, num_workers=2).partition(
            GraphStream(graph)).assignment).ecr
        assert par <= seq * 1.5 + 0.05

    @pytest.mark.parametrize("method", ("random", "chunked"))
    def test_sequential_only_heuristics_refused(self, graph, method):
        p = ProcessShardedPartitioner(_make(method), parallelism=2,
                                      num_workers=1)
        with pytest.raises(ValueError, match="score lanes"):
            p.partition(GraphStream(graph))

    def test_sliding_window_store_refused_with_guidance(self, graph):
        spn = make_partitioner("spn", K, num_shards=4)
        p = ProcessShardedPartitioner(spn, parallelism=2, num_workers=1)
        with pytest.raises(ValueError,
                           match="use num_shards=1"):
            p.partition(GraphStream(graph))


class TestBasics:
    def test_name_encodes_mode(self):
        p = ProcessShardedPartitioner(_make("spnl"), parallelism=4,
                                      num_workers=2)
        assert p.name == "SPNL-par4(proc2)"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProcessShardedPartitioner(_make("ldg"), parallelism=0)
        with pytest.raises(ValueError):
            ProcessShardedPartitioner(_make("ldg"), num_workers=0)
        with pytest.raises(ValueError):
            ProcessShardedPartitioner(_make("ldg"), ring_slots=0)
        with pytest.raises(ValueError):
            ProcessShardedPartitioner(_make("ldg"), max_worker_restarts=-1)
        with pytest.raises(ValueError):
            ProcessShardedPartitioner(_make("ldg"), worker_timeout=0.0)

    def test_stats_shape(self, graph):
        p = ProcessShardedPartitioner(_make("spnl"), parallelism=4,
                                      num_workers=2)
        result = p.partition(GraphStream(graph))
        assert {"parallelism", "use_rct", "delayed", "conflicts",
                "num_workers", "worker_restarts",
                "groups"} <= set(result.stats)
        assert result.stats["num_workers"] == 2
        assert result.stats["worker_restarts"] == 0
        assert result.stats["groups"] >= graph.num_vertices // 4

    def test_emits_group_events(self, graph):
        sink = MemorySink()
        hub = Instrumentation([sink])
        p = ProcessShardedPartitioner(_make("ldg"), parallelism=8,
                                      num_workers=2)
        p.partition(GraphStream(graph), instrumentation=hub)
        hub.close()
        groups = [r for r in sink.records if r["type"] == "parallel_group"]
        assert groups
        assert groups[-1]["placements"] == graph.num_vertices

    def test_gamma_store_survives_detach(self, graph):
        """After the segment closes the heuristic's Γ lanes must hold
        private copies — inspecting them must not touch freed memory
        and must reflect the finished run, not zeros."""
        base = _make("spnl")
        ProcessShardedPartitioner(base, parallelism=4,
                                  num_workers=2).partition(
            GraphStream(graph))
        lanes = base.score_lanes()
        assert any(np.abs(arr).sum() > 0 for arr in lanes.values())


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_is_byte_identical_to_uncrashed_run(self, graph,
                                                       tmp_path):
        full_dir = tmp_path / "full"
        ref = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4,
            num_workers=2).partition_with_checkpoints(
            GraphStream(graph), full_dir, every=250)
        assert ref.stats["checkpoints_written"] >= 2

        crash_dir = tmp_path / "crashed"
        # A run that "crashed" right after its first snapshot is modelled
        # by copying that snapshot alone and resuming from it.
        first = sorted(full_dir.glob("ckpt-*.snap"))[0]
        crash_dir.mkdir()
        (crash_dir / first.name).write_bytes(first.read_bytes())
        resumed = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4, num_workers=2).resume_partition(
            GraphStream(graph), crash_dir, every=250)
        assert resumed.assignment == ref.assignment
        assert resumed.stats["resumed_from"].endswith(first.name)

    def test_snapshot_is_sequentially_resumable(self, graph, tmp_path):
        """A sharded snapshot is the plain sequential triple: the
        recovery layer can finish the pass without any executor."""
        ProcessShardedPartitioner(
            _make("spnl"), parallelism=4,
            num_workers=2).partition_with_checkpoints(
            GraphStream(graph), tmp_path, every=300)
        snap = latest_snapshot(tmp_path)
        assert snap is not None
        result = resume_sequential(_make("spnl"), GraphStream(graph),
                                   snap, config=tmp_path, every=300)
        result.assignment.validate(graph.num_vertices)

    def test_resume_missing_snapshot_raises(self, graph, tmp_path):
        p = ProcessShardedPartitioner(_make("ldg"), parallelism=2,
                                      num_workers=1)
        with pytest.raises(FileNotFoundError):
            p.resume_partition(GraphStream(graph), tmp_path, every=100)


# ----------------------------------------------------------------------
# Chaos: SIGKILL worker processes mid-batch
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestProcessChaos:
    def test_sigkill_mid_batch_loses_no_placement(self, graph):
        clean = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4,
            num_workers=2).partition(GraphStream(graph))

        chaotic = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4, num_workers=2,
            max_worker_restarts=4, restart_backoff=0.0)
        kills = []

        def kill_once(group_index, procs):
            if group_index == 3 and not kills:
                os.kill(procs[0].pid, signal.SIGKILL)
                kills.append(procs[0].pid)

        chaotic.barrier_hook = kill_once
        result = chaotic.partition(GraphStream(graph))
        assert kills, "the chaos hook never fired"
        assert result.assignment == clean.assignment
        assert 1 <= result.stats["worker_restarts"] <= 4

    def test_repeated_kills_within_budget_recover(self, graph):
        clean = ProcessShardedPartitioner(
            _make("ldg"), parallelism=4,
            num_workers=2).partition(GraphStream(graph))
        chaotic = ProcessShardedPartitioner(
            _make("ldg"), parallelism=4, num_workers=2,
            max_worker_restarts=3, restart_backoff=0.0)
        kills = []

        def kill_thrice(group_index, procs):
            if group_index in (2, 10, 30) and len(kills) < 3:
                victim = procs[group_index % 2]
                os.kill(victim.pid, signal.SIGKILL)
                kills.append(victim.pid)

        chaotic.barrier_hook = kill_thrice
        result = chaotic.partition(GraphStream(graph))
        assert len(kills) == 3
        assert result.assignment == clean.assignment

    def test_restart_budget_exhaustion_raises(self, graph):
        p = ProcessShardedPartitioner(
            _make("ldg"), parallelism=2, num_workers=1,
            max_worker_restarts=0, restart_backoff=0.0)
        p.barrier_hook = lambda _g, procs: os.kill(procs[0].pid,
                                                   signal.SIGKILL)
        with pytest.raises(WorkerCrashedError, match="restart budget"):
            p.partition(GraphStream(graph))

    def test_restart_emits_trace_records(self, graph):
        sink = MemorySink()
        hub = Instrumentation([sink])
        p = ProcessShardedPartitioner(
            _make("ldg"), parallelism=4, num_workers=2,
            max_worker_restarts=2, restart_backoff=0.0)
        fired = []

        def kill_once(group_index, procs):
            if group_index == 1 and not fired:
                os.kill(procs[1].pid, signal.SIGKILL)
                fired.append(True)

        p.barrier_hook = kill_once
        p.partition(GraphStream(graph), instrumentation=hub)
        hub.close()
        restarts = [r for r in sink.records
                    if r["type"] == "worker_restart"]
        assert restarts and restarts[0]["worker"] == 1

    def test_kill_during_checkpointed_run_resumes_identically(
            self, graph, tmp_path):
        ref = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4,
            num_workers=2).partition_with_checkpoints(
            GraphStream(graph), tmp_path / "ref", every=250)

        chaotic = ProcessShardedPartitioner(
            _make("spnl"), parallelism=4, num_workers=2,
            max_worker_restarts=4, restart_backoff=0.0)
        kills = []

        def kill_once(group_index, procs):
            if group_index == 5 and not kills:
                os.kill(procs[0].pid, signal.SIGKILL)
                kills.append(True)

        chaotic.barrier_hook = kill_once
        survived = chaotic.partition_with_checkpoints(
            GraphStream(graph), tmp_path / "chaos", every=250)
        assert kills
        assert survived.assignment == ref.assignment


# ----------------------------------------------------------------------
# SharedArrayBlock
# ----------------------------------------------------------------------
class TestSharedArrayBlock:
    SPEC = [("a", (5,), np.int64), ("b", (3, 4), np.float64),
            ("c", (7,), np.uint8)]

    def test_round_trip_through_attach(self):
        block = SharedArrayBlock.create(self.SPEC)
        try:
            block.views["a"][:] = np.arange(5)
            block.views["b"][:] = 2.5
            other = SharedArrayBlock.attach(block.name, self.SPEC)
            try:
                assert np.array_equal(other.views["a"], np.arange(5))
                assert (other.views["b"] == 2.5).all()
                other.views["c"][:] = 9  # writes flow the other way too
                assert (block.views["c"] == 9).all()
            finally:
                other.close()
        finally:
            block.close()

    def test_views_are_cache_line_aligned(self):
        block = SharedArrayBlock.create(self.SPEC)
        try:
            for view in block.views.values():
                assert view.ctypes.data % 64 == 0
        finally:
            block.close()

    def test_oversized_spec_rejected_on_attach(self):
        block = SharedArrayBlock.create(self.SPEC)
        try:
            bigger = [("x", (64 * 1024,), np.int64)]
            with pytest.raises(ValueError, match="spec mismatch"):
                SharedArrayBlock.attach(block.name, bigger)
        finally:
            block.close()

    def test_owner_close_unlinks_segment(self):
        block = SharedArrayBlock.create(self.SPEC)
        name = block.name
        block.close()
        with pytest.raises(FileNotFoundError):
            SharedArrayBlock.attach(name, self.SPEC)
