"""Unit and model-based tests for the Reversed-Counting-Table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.parallel import ReversedCountingTable
from repro.parallel.process import clear_lane, fold_lanes

N = 24  # vertices; small, so re-registration and a full table are common


class TestRegistration:
    def test_register_and_len(self):
        rct = ReversedCountingTable(2, N)
        assert rct.register(5)
        assert len(rct) == 1
        assert rct.in_flight[5] == 1

    def test_capacity_is_epsilon_m(self):
        rct = ReversedCountingTable(2, N, epsilon=2)
        assert rct.capacity == 4
        for v in range(4):
            assert rct.register(v)
        assert not rct.register(19)  # full

    def test_reregister_existing_is_ok_when_full(self):
        rct = ReversedCountingTable(1, N, epsilon=1)
        rct.register(0)
        assert rct.register(0)  # already present, not a capacity issue
        assert len(rct) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReversedCountingTable(0, N)
        with pytest.raises(ValueError):
            ReversedCountingTable(2, N, epsilon=0)

    def test_lanes_can_be_supplied(self):
        counts = np.zeros(N, dtype=np.int32)
        in_flight = np.zeros(N, dtype=np.uint8)
        rct = ReversedCountingTable(2, N, counts=counts, in_flight=in_flight)
        rct.register(3)
        rct.note_references([3, 3])
        assert in_flight[3] == 1 and counts[3] == 2


class TestCounting:
    def test_note_references_counts_inflight_only(self):
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        rct.register(2)
        hits = rct.note_references(np.array([1, 2, 7]))
        assert hits == 2
        assert rct.counts[1] == 1
        assert rct.counts[7] == 0

    def test_total_conflicts_accumulates(self):
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        rct.note_references([1])
        rct.note_references([1])
        assert rct.total_conflicts == 2
        assert rct.counts[1] == 2

    def test_release_references_drains(self):
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        rct.note_references([1, 1])
        rct.release_references([1])
        assert rct.counts[1] == 1
        rct.release_references([1])
        rct.release_references([1])  # draining below zero clamps
        assert rct.counts[1] == 0
        assert (rct.nonzero_sum, rct.nonzero_count) == (0, 0)

    def test_remove(self):
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        rct.note_references([1, 1])
        rct.remove(1)
        assert len(rct) == 0
        assert rct.counts[1] == 0 and rct.in_flight[1] == 0
        assert (rct.nonzero_sum, rct.nonzero_count) == (0, 0)
        rct.remove(1)  # idempotent
        assert len(rct) == 0

    def test_empty_neighbor_rows(self):
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        assert rct.note_references([]) == 0
        rct.release_references(np.empty(0, dtype=np.int64))
        assert rct.total_conflicts == 0


class TestThreshold:
    def test_threshold_is_mean_of_nonzero(self):
        rct = ReversedCountingTable(4, N)
        for v in (1, 2, 3):
            rct.register(v)
        rct.note_references([1, 1, 1, 2])  # counts: 3, 1, 0
        assert (rct.nonzero_sum, rct.nonzero_count) == (4, 2)
        assert rct.nonzero_sum / rct.nonzero_count == 2.0

    def test_threshold_infinite_when_all_zero(self):
        """No non-zero counter: no threshold, and nothing is delayed."""
        rct = ReversedCountingTable(4, N)
        rct.register(1)
        assert rct.nonzero_count == 0
        assert not rct.should_delay(1)

    def test_should_delay_above_mean(self):
        rct = ReversedCountingTable(4, N)
        for v in (1, 2):
            rct.register(v)
        rct.note_references([1, 1, 1, 2])  # 1:3, 2:1; mean 2
        assert rct.should_delay(1)
        assert not rct.should_delay(2)

    def test_should_delay_false_for_unknown(self):
        rct = ReversedCountingTable(4, N)
        assert not rct.should_delay(19)


class TestPinnedSemantics:
    """Today's reading of the delay rule, pinned so a change to it has a
    test to flip: the threshold test is a strict ``count > mean``, and a
    vertex the full table refused is untracked."""

    def test_lone_conflicted_vertex_is_never_delayed(self):
        rct = ReversedCountingTable(4, N)
        for v in (1, 2, 3):
            rct.register(v)
        rct.note_references([1] * 7)  # its count is the mean of one
        assert not rct.should_delay(1)
        rct.note_references([2] * 7)  # a tie: both equal the mean
        assert not rct.should_delay(1)
        assert not rct.should_delay(2)

    def test_vertex_refused_when_full_is_never_counted_or_delayed(self):
        rct = ReversedCountingTable(1, N, epsilon=2)
        assert rct.register(0) and rct.register(1)
        assert not rct.register(2)
        assert rct.note_references([2, 2, 2, 0]) == 1
        assert rct.counts[2] == 0 and rct.in_flight[2] == 0
        assert not rct.should_delay(2)
        assert rct.total_conflicts == 1


# ----------------------------------------------------------------------
# The dense table against a dict model of the paper's ε·M-entry hash
# ----------------------------------------------------------------------
class _DictTable:
    """The RCT as a dict, the threshold as ``np.mean`` of its values."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.counts: dict[int, int] = {}
        self.total_conflicts = 0

    def register(self, vertex: int) -> bool:
        if vertex in self.counts:
            return True
        if len(self.counts) >= self.capacity:
            return False
        self.counts[vertex] = 0
        return True

    def note(self, neighbors) -> int:
        hits = [u for u in neighbors if u in self.counts]
        for u in hits:
            self.counts[u] += 1
        self.total_conflicts += len(hits)
        return len(hits)

    def release(self, neighbors) -> None:
        for u in neighbors:
            if self.counts.get(u, 0) > 0:
                self.counts[u] -= 1

    def threshold(self) -> float:
        nonzero = [c for c in self.counts.values() if c > 0]
        return float(np.mean(nonzero)) if nonzero else float("inf")

    def should_delay(self, vertex: int) -> bool:
        return self.counts.get(vertex, 0) > self.threshold()


_vertex = st.integers(0, N - 1)
#: Short rows over few ids, so duplicates and in-flight hits are common.
_row = st.lists(_vertex, max_size=8)
_containers = st.sampled_from([
    list,
    lambda ids: np.asarray(ids, dtype=np.int32),
    lambda ids: np.asarray(ids, dtype=np.int64),
])
WORKERS = 3


class TableMachine(RuleBasedStateMachine):
    @initialize(parallelism=st.integers(1, 4), epsilon=st.integers(1, 3))
    def build(self, parallelism, epsilon):
        self.table = ReversedCountingTable(parallelism, N, epsilon=epsilon)
        self.model = _DictTable(parallelism * epsilon)
        self.lanes = np.zeros((WORKERS, N), dtype=np.int32)

    @rule(vertex=_vertex)
    def register(self, vertex):
        assert self.table.register(vertex) == self.model.register(vertex)

    @rule(row=_row, container=_containers)
    def note(self, row, container):
        assert self.table.note_references(container(row)) \
            == self.model.note(row)

    @rule(row=_row, container=_containers)
    def release(self, row, container):
        self.table.release_references(container(row))
        self.model.release(row)

    @rule(vertex=_vertex)
    def delay_test(self, vertex):
        assert self.table.should_delay(vertex) \
            == self.model.should_delay(vertex)

    @rule(vertex=_vertex)
    def remove(self, vertex):
        self.table.remove(vertex)
        self.model.counts.pop(vertex, None)

    @rule(rows=st.lists(_row, min_size=WORKERS, max_size=WORKERS),
          extra=st.lists(_vertex, max_size=3, unique=True),
          killed=st.none() | st.integers(0, WORKERS - 1),
          cut=st.integers(0, 8))
    def fold(self, rows, extra, killed, cut):
        """Each worker notes its row into its own lane, as the process
        executor's workers do; one may die after ``cut`` references and
        be redone after ``clear_lane``.  The fold must equal noting the
        same rows directly."""
        in_flight = self.table.in_flight
        for worker, row in enumerate(rows):
            row = np.asarray(row, dtype=np.int64)
            if worker == killed:
                partial = row[:cut]
                np.add.at(self.lanes[worker],
                          partial[in_flight[partial] != 0], 1)
                clear_lane(self.lanes, worker, self._group(extra))
            np.add.at(self.lanes[worker], row[in_flight[row] != 0], 1)
        expected = sum(self.model.note(row) for row in rows)
        assert fold_lanes(self.table, self.lanes,
                          self._group(extra)) == expected
        assert not self.lanes.any()

    def _group(self, extra) -> np.ndarray:
        """The group's vertices: every in-flight one, and maybe others
        whose registration the full table refused."""
        return np.array(sorted(set(self.model.counts) | set(extra)),
                        dtype=np.int64)

    @invariant()
    def table_matches_model(self):
        table, model = self.table, self.model
        assert len(table) == len(model.counts)
        expected = np.zeros(N, dtype=np.int64)
        for vertex, count in model.counts.items():
            expected[vertex] = count
        np.testing.assert_array_equal(table.counts, expected)
        np.testing.assert_array_equal(table.in_flight != 0,
                                      [v in model.counts for v in range(N)])
        if table.nonzero_count:
            assert table.nonzero_sum / table.nonzero_count \
                == model.threshold()
        else:
            assert model.threshold() == float("inf")
        assert [table.should_delay(v) for v in range(N)] \
            == [model.should_delay(v) for v in range(N)]
        assert table.total_conflicts == model.total_conflicts


TableMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestTableModel = TableMachine.TestCase
