"""Unit tests for the streaming framework (state, capacity, tie-breaks)."""

import numpy as np
import pytest

from repro.graph import AdjacencyRecord, GraphStream, from_edges
from repro.partitioning import (
    BalanceMode,
    LDGPartitioner,
    PartitionState,
    StreamingPartitioner,
)
from repro.partitioning.base import PlacementKernel


def record(v, neighbors=()):
    return AdjacencyRecord(v, np.asarray(list(neighbors), dtype=np.int64))


class TestPartitionState:
    def test_capacity_vertex_mode(self):
        state = PartitionState(4, 100, 1000, slack=1.0)
        assert state.capacity == 25

    def test_capacity_edge_mode(self):
        state = PartitionState(4, 100, 1000,
                               balance=BalanceMode.EDGE, slack=1.0)
        assert state.capacity == 250

    def test_capacity_rounds_up(self):
        state = PartitionState(3, 10, 0, slack=1.0)
        assert state.capacity == 4  # ceil(10/3)

    def test_slack_below_one_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            PartitionState(2, 10, 0, slack=0.9)

    def test_commit_updates_counts(self):
        state = PartitionState(2, 10, 20)
        state.commit(record(0, [1, 2, 3]), 1)
        assert state.vertex_counts[1] == 1
        assert state.edge_counts[1] == 3
        assert state.route[0] == 1
        assert state.placed_vertices == 1

    def test_double_commit_rejected(self):
        state = PartitionState(2, 10, 20)
        state.commit(record(0), 0)
        with pytest.raises(ValueError, match="twice"):
            state.commit(record(0), 1)

    def test_invalid_pid_rejected(self):
        state = PartitionState(2, 10, 20)
        with pytest.raises(ValueError, match="invalid partition"):
            state.commit(record(0), 5)

    def test_penalty_weights_decrease_with_load(self):
        state = PartitionState(2, 10, 0, slack=1.0)
        w0 = state.penalty_weights()[0]
        state.commit(record(0), 0)
        assert state.penalty_weights()[0] < w0
        assert state.penalty_weights()[1] == w0

    def test_penalty_never_negative(self):
        state = PartitionState(2, 2, 0, slack=1.0)
        state.commit(record(0), 0)
        state.commit(record(1), 0)  # partition 0 over its share
        assert state.penalty_weights()[0] >= 0.0

    def test_neighbor_partition_counts(self):
        state = PartitionState(3, 10, 0)
        state.commit(record(0), 2)
        state.commit(record(1), 2)
        state.commit(record(2), 0)
        counts = state.neighbor_partition_counts(
            np.array([0, 1, 2, 9]))  # 9 unplaced
        assert list(counts) == [1, 0, 2]

    def test_neighbor_counts_empty(self):
        state = PartitionState(3, 10, 0)
        assert list(state.neighbor_partition_counts(np.array([],
                                                             dtype=int))) \
            == [0, 0, 0]

    def test_eligible_mask(self):
        state = PartitionState(2, 2, 0, slack=1.0)
        state.commit(record(0), 0)
        assert list(state.eligible()) == [False, True]


class _ConstantScore(StreamingPartitioner):
    """Always prefers partition 0 — exercises capacity fallback."""

    def _score(self, record, state):
        scores = np.zeros(state.num_partitions)
        scores[0] = 1.0
        return scores


class TestChooseAndPlace:
    def test_choose_argmax(self):
        p = LDGPartitioner(3)
        state = PartitionState(3, 10, 0)
        assert p.choose(np.array([0.1, 0.9, 0.3]), state) == 1

    def test_tie_breaks_by_load_then_index(self):
        p = LDGPartitioner(3)
        state = PartitionState(3, 10, 0)
        state.commit(record(0), 0)
        # all scores equal; partition 0 is most loaded → pick 1 (lowest id
        # among least loaded)
        assert p.choose(np.array([1.0, 1.0, 1.0]), state) == 1

    def test_full_partition_not_chosen(self):
        p = _ConstantScore(2)
        g = from_edges([], num_vertices=4)
        result = p.partition(GraphStream(g))
        # capacity forces an even split despite the constant preference
        counts = result.assignment.vertex_counts()
        assert counts.max() <= int(1.1 * 4 / 2) + 1
        assert result.assignment.is_complete()

    def test_all_full_fallback_least_loaded(self):
        p = LDGPartitioner(2, slack=1.0)
        state = PartitionState(2, 2, 0, slack=1.0)
        state.commit(record(0), 0)
        state.commit(record(1), 1)
        # both at capacity: choose() must still return something sane
        pid = p.choose(np.array([0.0, 0.0]), state)
        assert pid in (0, 1)


class TestPartitionDriver:
    def test_result_fields(self, tiny_graph):
        result = LDGPartitioner(2).partition(GraphStream(tiny_graph))
        assert result.partitioner == "LDG"
        assert result.num_partitions == 2
        assert result.elapsed_seconds >= 0.0
        assert result.assignment.is_complete()

    def test_balance_mode_string_coerced(self):
        p = LDGPartitioner(2, balance="edge")
        assert p.balance is BalanceMode.EDGE

    def test_edge_balance_mode_runs(self, web_graph):
        from repro.partitioning import evaluate
        p = LDGPartitioner(8, balance="edge", slack=1.1)
        result = p.partition(GraphStream(web_graph))
        q = evaluate(web_graph, result.assignment)
        # edge capacity bounds δe near the slack
        assert q.delta_e <= 1.3

    def test_repr(self):
        assert "LDG" in repr(LDGPartitioner(4))


def _commit_kernel(partitioner, state):
    """A kernel over ``state`` plus the list its probe feed fills with
    ``(vertex, pid, margin)``."""
    fed = []
    kernel = PlacementKernel(
        partitioner, state,
        observe=lambda v, neighbors, pid, margin: fed.append(
            (v, pid, margin)))
    return kernel, fed


class TestCommitMargin:
    """``PlacementKernel.commit`` must pick exactly what ``choose``
    picks, and feed the probe the argmax-vs-runner-up margin."""

    EMPTY = np.array([], dtype=np.int64)

    def test_identical_picks_randomized(self):
        rng = np.random.default_rng(7)
        p = LDGPartitioner(8)
        for trial in range(500):
            state = PartitionState(8, 40, 0)
            for v in range(int(rng.integers(0, 30))):
                state.commit(record(v), int(rng.integers(0, 8)))
            # quantized scores force frequent exact ties
            scores = rng.integers(0, 4, size=8).astype(float)
            expected = p.choose(scores.copy(), state)
            kernel, fed = _commit_kernel(p, state)
            assert kernel.commit(39, self.EMPTY, scores) == expected, trial
            [(vertex, pid, margin)] = fed
            assert (vertex, pid) == (39, expected)
            if margin is not None:
                assert margin >= 0.0
                assert np.isfinite(margin)

    def test_margin_values(self):
        kernel, fed = _commit_kernel(LDGPartitioner(3),
                                     PartitionState(3, 10, 0))
        assert kernel.commit(0, self.EMPTY, np.array([0.1, 0.9, 0.3])) == 1
        assert fed[-1] == (0, 1, pytest.approx(0.6))
        kernel.commit(1, self.EMPTY, np.array([1.0, 1.0, 0.2]))
        assert fed[-1][2] == 0.0  # tied argmax
        kernel1, fed1 = _commit_kernel(LDGPartitioner(1),
                                       PartitionState(1, 10, 0))
        kernel1.commit(0, self.EMPTY, np.array([0.5]))
        assert fed1 == [(0, 0, None)]  # no runner-up exists

    def test_all_full_counts_overflow_and_matches_choose(self):
        p = LDGPartitioner(2, balance="edge", slack=1.0)
        state = PartitionState(2, 3, 4, balance=BalanceMode.EDGE,
                               slack=1.0)
        state.commit(record(0, [1, 2]), 0)
        state.commit(record(1, [0, 2]), 1)  # both at their 2-edge cap
        expected = p.choose(np.array([0.0, 0.0]), state)
        assert state.capacity_overflows == 1
        kernel, fed = _commit_kernel(p, state)
        pid = kernel.commit(2, self.EMPTY, np.array([0.0, 0.0]))
        assert pid == expected
        assert fed == [(2, pid, None)]
        assert state.capacity_overflows == 2
