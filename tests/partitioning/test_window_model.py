"""Model-based check of the sliding-window Γ store (paper Sec. V-A).

The reference is a dict of per-id counters that follows the paper's case
analysis literally: an id inside ``[low, low + W)`` is counted (case 1),
one behind it is a harmless drop (case 2), one beyond it a loss (case 3),
and sliding forgets every id that fell off the back.  Hypothesis drives
random operation sequences against the store and the reference; after
every step the whole ring, the cursor and both loss counters must agree.

The store hands the in-window test of ``gather_into(a)`` to the
``record(pid, a)`` that follows it.  The sequences reuse array objects
and rewrite them in place whenever no such hand-over is pending, so a
test replayed after an advance, for another array, or a second time puts
counts into the wrong slots and shows up in the ring.
"""

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

from repro.graph import GraphStream, community_web_graph
from repro.partitioning import SlidingWindowStore
from repro.partitioning.registry import make_partitioner

K = 3
N = 21
#: num_shards giving W = ceil(21 / X) of 1, 2, 3 and 7.
SHARDS_BY_WINDOW = {1: 21, 2: 11, 3: 7, 7: 3}

_CONTAINERS = {
    "list": list,
    "int32": lambda ids: np.asarray(ids, dtype=np.int32),
    "uint32": lambda ids: np.asarray(ids, dtype=np.uint32),
    "int64": lambda ids: np.asarray(ids, dtype=np.int64),
}

# Rows are drawn as offsets from the window's current ``low`` (negative:
# behind it; W and up: beyond it), so all three cases of the analysis
# stay likely wherever the window has slid to; short rows over a small
# range repeat ids often.
_offset = st.integers(-2, 9)
_offsets = st.lists(_offset, min_size=0, max_size=5)
#: Enough offsets to rewrite any row in place.
_five_offsets = st.lists(_offset, min_size=5, max_size=5)
_slots = st.integers(0, 2)


class _Reference:
    """Dict-of-counters Γ window: the case analysis, one id at a time."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.low = 0
        self.counts: dict[int, list[int]] = {}
        self.skipped_past = 0
        self.skipped_future = 0

    def inside(self, u: int) -> bool:
        return self.low <= u < self.low + self.window

    def advance_to(self, vertex: int) -> None:
        if vertex <= self.low:
            return
        self.low = vertex
        self.counts = {u: c for u, c in self.counts.items() if u >= vertex}

    def record(self, pid: int, ids) -> None:
        for u in ids:
            if u < self.low:
                self.skipped_past += 1
            elif not self.inside(u):
                self.skipped_future += 1
            else:
                self.counts.setdefault(u, [0] * K)[pid] += 1

    def expectation_of(self, u: int) -> list[int]:
        return list(self.counts.get(u, [0] * K)) if self.inside(u) \
            else [0] * K

    def gather(self, ids) -> list[int]:
        total = [0] * K
        for u in ids:
            for i, c in enumerate(self.expectation_of(u)):
                total[i] += c
        return total

    def table(self) -> np.ndarray:
        """The partition-major ``(K, W)`` ring a checkpoint holds."""
        ring = np.zeros((K, self.window), dtype=np.int32)
        for u, c in self.counts.items():
            ring[:, u % self.window] = c
        return ring


class WindowStoreMachine(RuleBasedStateMachine):
    @initialize(window=st.sampled_from(sorted(SHARDS_BY_WINDOW)))
    def build(self, window):
        self.store = SlidingWindowStore(
            K, N, num_shards=SHARDS_BY_WINDOW[window])
        assert self.store.window_size == window
        self.model = _Reference(window)
        self.scratch = np.empty(K, dtype=np.int64)
        # Reusable neighbor containers, as [object, current ids].
        self.pool = [[np.array([0, 0, window], dtype=np.int64),
                      [0, 0, window]], [[], []], [[1], [1]]]
        # (pool slot, low) of a gather_into() no record() has followed.
        self.pending: tuple[int, int] | None = None

    def _ids(self, offsets) -> list[int]:
        return [max(0, self.model.low + off) for off in offsets]

    # -- sliding ---------------------------------------------------------
    @rule(step=st.one_of(st.sampled_from([0, 1, 1, 2, 3, 5]),
                         st.integers(-3, 16)))
    def advance(self, step):
        """Step 0, 1, a wrap shorter than W, W or more, or backwards."""
        target = self.model.low + step
        self.store.advance_to(target)
        self.model.advance_to(target)

    # -- neighbor containers ---------------------------------------------
    @rule(slot=_slots, offsets=_offsets,
          kind=st.sampled_from(sorted(_CONTAINERS)))
    def new_row(self, slot, offsets, kind):
        ids = self._ids(offsets)
        self.pool[slot] = [_CONTAINERS[kind](ids), ids]
        if self.pending is not None and self.pending[0] == slot:
            self.pending = None  # that object is gone

    @rule(slot=_slots, offsets=_five_offsets)
    def rewrite_row_in_place(self, slot, offsets):
        """Same object, new ids — legal whenever no hand-over of this
        very array is pending, and fatal to a stale replay."""
        if self.pending == (slot, self.model.low):
            return
        row, ids = self.pool[slot]
        fresh = self._ids(offsets[:len(ids)])
        row[:] = fresh
        self.pool[slot][1] = fresh

    # -- reads -------------------------------------------------------------
    @rule(slot=_slots, offset=_offset)
    def read(self, slot, offset):
        """The allocating reads; they leave no hand-over behind."""
        row, ids = self.pool[slot]
        got = self.store.gather(row)
        assert got.dtype == np.int64
        assert got.tolist() == self.model.gather(ids)
        vertex = max(0, self.model.low + offset)
        got = self.store.expectation_of(vertex)
        assert got.dtype == np.int64
        assert got.tolist() == self.model.expectation_of(vertex)
        self.scratch[:] = -1
        got = self.store.expectation_of_into(vertex, self.scratch)
        assert got is self.scratch
        assert got.tolist() == self.model.expectation_of(vertex)

    @rule(slot=_slots)
    def gather_into(self, slot):
        row, ids = self.pool[slot]
        self.scratch[:] = -1
        got = self.store.gather_into(row, self.scratch)
        assert got is self.scratch
        assert got.tolist() == self.model.gather(ids)
        self.pending = (slot, self.model.low)

    # -- writes ------------------------------------------------------------
    @rule(slot=_slots, pid=st.integers(0, K - 1))
    def record(self, slot, pid):
        """Any row: the one just gathered (the placement step), another
        one, or the same one again."""
        row, ids = self.pool[slot]
        self.store.record(pid, row)
        self.model.record(pid, ids)
        self.pending = None

    @rule(step=st.sampled_from([0, 1, 1, 2]), slot=_slots,
          pid=st.integers(0, K - 1))
    def placement_step(self, step, slot, pid):
        """advance -> gather_into -> record on one array, as the kernel
        does it."""
        self.advance(step)
        self.gather_into(slot)
        self.record(slot, pid)

    @rule(slot=_slots, pid=st.integers(0, K - 1),
          between=st.sampled_from(["advance", "other row", "same row",
                                   "empty gather"]),
          step=st.integers(1, 8), offsets=_five_offsets)
    def broken_hand_over(self, slot, pid, between, step, offsets):
        """gather_into, then something that voids its window test, then
        a record of the same object holding other ids."""
        self.gather_into(slot)
        if between == "advance":
            self.advance(step)
        elif between == "other row":
            self.record((slot + 1) % len(self.pool), pid)
        elif between == "same row":
            self.record(slot, pid)
        else:
            self.store.gather_into([], self.scratch)
            self.pending = None
        self.rewrite_row_in_place(slot, offsets)
        self.record(slot, pid)

    # -- the whole observable state, after every step ---------------------
    @invariant()
    def ring_and_cursor_agree(self):
        store, model = self.store, self.model
        assert store.low == model.low
        assert store.high == min(model.low + model.window, N)
        np.testing.assert_array_equal(store.state_dict()["table"],
                                      model.table())
        assert store.nbytes() == K * (model.window + 2) * 4

    @invariant()
    def spare_rows_are_zero_and_counters_agree(self):
        """The ring has ``W + 2`` rows; the two that hold no live id
        are zero between calls, their counts moved into the loss
        counters."""
        store, model = self.store, self.model
        rows = model.window + 2
        live = {u % rows for u in range(model.low, model.low + model.window)}
        ring = store._table
        assert ring.shape == (rows, K)
        for row in set(range(rows)) - live:
            assert not ring[row].any(), f"spare row {row}: {ring[row]}"
        assert (store.skipped_past, store.skipped_future) \
            == (model.skipped_past, model.skipped_future)


WindowStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestWindowStoreModel = WindowStoreMachine.TestCase


# ----------------------------------------------------------------------
# The hand-over, and the replays it must never make, spelled out.
# ----------------------------------------------------------------------
def _store():
    return SlidingWindowStore(2, 12, num_shards=4)  # W = 3


@pytest.fixture
def window_tests(monkeypatch):
    """Every in-window test made while the fixture is live."""
    made = []
    classify = SlidingWindowStore._classify

    def counted(self, neighbors):
        made.append(neighbors)
        return classify(self, neighbors)

    monkeypatch.setattr(SlidingWindowStore, "_classify", counted)
    return made


def test_placement_step_makes_one_window_test(window_tests):
    store, out = _store(), np.empty(2, dtype=np.int64)
    row = np.array([0, 2, 2, 7])
    store.gather_into(row, out)
    store.record(1, row)
    assert len(window_tests) == 1
    assert store.state_dict()["table"].tolist() == [[0, 0, 0], [1, 0, 2]]
    assert (store.skipped_past, store.skipped_future) == (0, 1)


@pytest.mark.parametrize("method", ["spn", "spnl"])
def test_kernel_makes_one_window_test_per_record(method, window_tests):
    """The default (``combined``) in-term scores the very array the
    commit records, so the whole pass classifies each row once."""
    graph = community_web_graph(300, avg_degree=6, seed=5)
    result = make_partitioner(method, 4, num_shards=4).partition(
        GraphStream(graph))
    assert result.stats["num_shards"] == 4
    rows = int(np.count_nonzero(np.diff(graph.indptr)))
    assert len(window_tests) == rows


def test_not_replayed_after_an_advance():
    store, out = _store(), np.empty(2, dtype=np.int64)
    row = np.array([0, 2])
    store.gather_into(row, out)  # both inside [0, 3)
    store.advance_to(1)          # id 0 fell behind; slot 0 now backs id 3
    store.record(0, row)
    assert store.state_dict()["table"].tolist() == [[0, 0, 1], [0, 0, 0]]
    assert store.skipped_past == 1
    assert list(store.expectation_of(3)) == [0, 0]


def test_not_replayed_for_another_array():
    store, out = _store(), np.empty(2, dtype=np.int64)
    store.gather_into(np.array([0, 1]), out)
    store.record(0, np.array([2, 9]))
    assert store.state_dict()["table"].tolist() == [[0, 0, 1], [0, 0, 0]]
    assert store.skipped_future == 1


def test_not_replayed_twice():
    store, out = _store(), np.empty(2, dtype=np.int64)
    row = np.array([0, 1])
    store.gather_into(row, out)
    store.record(0, row)
    row[:] = [2, 9]  # same object, new ids: only a replay would miss it
    store.record(0, row)
    assert store.state_dict()["table"].tolist() == [[1, 1, 1], [0, 0, 0]]
    assert store.skipped_future == 1


def test_not_replayed_after_a_restore():
    store, out = _store(), np.empty(2, dtype=np.int64)
    row = np.array([0, 2])
    saved = store.state_dict()
    store.gather_into(row, out)
    row[:] = [1, 1]
    store.load_state(saved)  # same low, so only the restore clears it
    store.record(1, row)
    assert store.state_dict()["table"].tolist() == [[0, 0, 0], [0, 2, 0]]
