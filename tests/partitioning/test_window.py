"""Unit tests for the fine-grained sliding-window expectation store."""

import copy

import numpy as np
import pytest

from repro.partitioning import (
    FullExpectationStore,
    SlidingWindowStore,
    default_num_shards,
)

from .test_expectation import BIG, assert_exact_wide_sums


class TestDefaultShards:
    def test_paper_formula(self):
        # X = min(αK, |V|/(βK)) with α=4, β=100
        assert default_num_shards(100_000, 32) == min(128, 100_000 // 3200)

    def test_at_least_one(self):
        assert default_num_shards(100, 32) == 1
        assert default_num_shards(0, 4) == 1

    def test_alpha_cap(self):
        # enormous graph: capped by αK
        assert default_num_shards(10**9, 4, alpha=4, beta=100) == 16


class TestWindowGeometry:
    def test_window_size_ceil(self):
        store = SlidingWindowStore(2, 10, num_shards=3)
        assert store.window_size == 4  # ceil(10/3)

    def test_initial_window(self):
        store = SlidingWindowStore(2, 10, num_shards=2)
        assert store.low == 0
        assert store.high == 5

    def test_high_clamped_to_n(self):
        store = SlidingWindowStore(2, 10, num_shards=2)
        store.advance_to(8)
        assert store.high == 10

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            SlidingWindowStore(2, 10, num_shards=0)


class TestWindowSemantics:
    def test_counts_inside_window(self):
        store = SlidingWindowStore(2, 10, num_shards=2)  # window [0, 5)
        store.record(0, np.array([1, 4]))
        assert store.expectation_of(1)[0] == 1
        assert store.expectation_of(4)[0] == 1

    def test_future_neighbors_skipped(self):
        """Case 3 of the paper: neighbors beyond the window are lost."""
        store = SlidingWindowStore(2, 10, num_shards=2)
        store.record(0, np.array([7]))  # 7 outside [0, 5)
        assert store.expectation_of(7)[0] == 0
        assert store.skipped_future == 1

    def test_past_neighbors_skipped(self):
        """Case 2: neighbors behind the window are harmless drops."""
        store = SlidingWindowStore(2, 10, num_shards=2)
        store.advance_to(4)
        store.record(0, np.array([2]))  # 2 < low
        assert store.skipped_past == 1

    def test_fine_grained_slide_keeps_overlap(self):
        """Advancing by one vertex must keep counters for ids still inside."""
        store = SlidingWindowStore(1, 10, num_shards=2)  # window size 5
        store.record(0, np.array([1, 2, 3, 4]))
        store.advance_to(1)  # window [1, 6): all recorded ids survive
        assert store.expectation_of(4)[0] == 1
        assert store.expectation_of(1)[0] == 1

    def test_slide_evicts_expired(self):
        store = SlidingWindowStore(1, 10, num_shards=2)
        store.record(0, np.array([1, 2]))
        store.advance_to(2)  # id 1 expired
        assert store.expectation_of(1)[0] == 0
        assert store.expectation_of(2)[0] == 1

    def test_ring_slot_reuse_is_clean(self):
        """A slot vacated by id i must read 0 for id i+W (no stale count)."""
        store = SlidingWindowStore(1, 20, num_shards=4)  # window size 5
        store.record(0, np.array([0]))  # slot 0 holds id 0
        store.advance_to(5)  # window [5, 10): slot 0 now backs id 5
        assert store.expectation_of(5)[0] == 0

    def test_jump_beyond_window_clears_all(self):
        store = SlidingWindowStore(1, 100, num_shards=10)
        store.record(0, np.array([3, 5]))
        store.advance_to(50)
        assert store.expectation_of(50)[0] == 0
        assert not store._table.any()

    def test_backwards_advance_is_noop(self):
        """Delayed (parallel) vertices re-read the window without error."""
        store = SlidingWindowStore(1, 10, num_shards=2)
        store.advance_to(4)
        store.record(0, np.array([5]))
        store.advance_to(2)  # no-op
        assert store.low == 4
        assert store.expectation_of(5)[0] == 1

    def test_gather_filters_to_window(self):
        store = SlidingWindowStore(2, 10, num_shards=2)
        store.record(1, np.array([1, 3]))
        gathered = store.gather(np.array([1, 3, 8]))  # 8 out of window
        assert list(gathered) == [0, 2]

    def test_nbytes_shrinks_with_shards(self):
        full = SlidingWindowStore(4, 1000, num_shards=1)
        windowed = SlidingWindowStore(4, 1000, num_shards=10)
        assert windowed.nbytes() < full.nbytes()
        assert windowed.nbytes() == pytest.approx(full.nbytes() / 10,
                                                  rel=0.05)

    def test_a_deep_copy_binds_its_own_ring(self):
        """The bound access captures the ring and the cursor's holder:
        a copy slides and records its own, the original stays put."""
        store = SlidingWindowStore(2, 12, num_shards=4)  # W = 3
        store.record(1, np.array([0, 2]))
        twin = copy.deepcopy(store)
        twin.advance_to(1)
        twin.record(0, np.array([3]))
        assert (store.low, twin.low) == (0, 1)
        assert store.state_dict()["table"].tolist() == [[0, 0, 0],
                                                        [1, 0, 1]]
        assert twin.state_dict()["table"].tolist() == [[1, 0, 0],
                                                       [0, 0, 1]]


class TestSumWidth:
    def test_window_sums_are_exact_past_int32(self):
        """Four in-window rows near 2**30 each (ids outside the window
        add nothing): the total needs 64 bits."""
        store = SlidingWindowStore(3, 40, num_shards=4)  # W = 10
        store.advance_to(12)
        store._table[:] = [BIG, BIG - 1, 7]
        neighbors = np.array([3, 13, 21, 21, 30, 12])
        assert store._classify(neighbors)[1:] == (1, 1)
        live = neighbors[(neighbors >= 12) & (neighbors < 22)]
        out = np.empty(3, dtype=np.int64)
        assert store.gather_into(neighbors, out).tolist() == \
            [4 * BIG, 4 * BIG - 4, 28]
        assert_exact_wide_sums(store, 12, live, [BIG, BIG - 1, 7])
        # Γ(v) of a vertex outside the window is zero, not a ring row
        assert store.combined_into(30, live, out).tolist() == \
            [4 * BIG, 4 * BIG - 4, 28]


class TestEquivalenceWithFullStore:
    def test_single_shard_matches_full_store_on_live_ids(self, rng):
        """X=1 (window = whole id space) must agree with the dense table
        for every id the stream can still place (current or future).

        Ids *behind* the stream position may differ — the window drops
        them by design — but those counters are semantically dead: their
        vertices are already placed and will never be scored again.
        """
        n, k = 200, 4
        full = FullExpectationStore(k, n)
        windowed = SlidingWindowStore(k, n, num_shards=1)
        for v in range(0, n, 3):
            neighbors = rng.integers(v, n, size=rng.integers(0, 6))
            pid = int(rng.integers(0, k))
            for store in (full, windowed):
                store.advance_to(v)
                store.record(pid, neighbors)
            live = rng.integers(v, n, size=5)
            assert np.array_equal(full.gather(live),
                                  windowed.gather(live))
            assert np.array_equal(full.expectation_of(v),
                                  windowed.expectation_of(v))

    def test_windowed_is_lower_bound_of_full(self, rng):
        """A windowed count can never exceed the dense count."""
        n, k = 300, 3
        full = FullExpectationStore(k, n)
        windowed = SlidingWindowStore(k, n, num_shards=6)
        for v in range(0, n, 2):
            neighbors = rng.integers(0, n, size=4)
            pid = int(rng.integers(0, k))
            full.advance_to(v)
            windowed.advance_to(v)
            assert (windowed.gather(neighbors)
                    <= full.gather(neighbors)).all()
            full.record(pid, neighbors)
            windowed.record(pid, neighbors)


def _as_list(ids):
    return [int(u) for u in ids]


class TestNeighborContainers:
    """Whatever holds the ids — a list, a narrower or an unsigned array —
    the window test compares them as integers (an unsigned ``id - low``
    would wrap a behind-window id round to "beyond")."""

    @pytest.mark.parametrize("convert", [
        _as_list,
        lambda ids: np.asarray(ids, dtype=np.int32),
        lambda ids: np.asarray(ids, dtype=np.uint32),
        lambda ids: np.asarray(ids, dtype=np.int64),
    ], ids=["list", "int32", "uint32", "int64"])
    def test_window_matches_dense_on_live_ids(self, convert, rng):
        n, k, shards = 120, 3, 4  # W = 30
        dense = FullExpectationStore(k, n)
        windowed = SlidingWindowStore(k, n, num_shards=shards)
        size = windowed.window_size
        scratch = np.empty(k, dtype=np.int64)
        past = future = 0
        for v in range(0, n, 2):
            dense.advance_to(v)
            windowed.advance_to(v)
            ids = rng.integers(0, n, size=int(rng.integers(1, 9)))
            live = ids[(ids >= v) & (ids < v + size)]
            # reads: ids outside the window contribute nothing
            expected = dense.gather(live)
            assert np.array_equal(windowed.gather(convert(ids)), expected)
            neighbors = convert(ids)
            assert np.array_equal(
                windowed.gather_into(neighbors, scratch), expected)
            pid = int(rng.integers(0, k))
            windowed.record(pid, neighbors)  # the gathered array itself
            dense.record(pid, live)
            past += int((ids < v).sum())
            future += int((ids >= v + size).sum())
            assert (windowed.skipped_past, windowed.skipped_future) \
                == (past, future)
            # a second container of the same ids: no scoring call first
            windowed.record(pid, convert(ids))
            dense.record(pid, live)
            past += int((ids < v).sum())
            future += int((ids >= v + size).sum())
        assert past and future
        assert (windowed.skipped_past, windowed.skipped_future) \
            == (past, future)
        for u in range(v, min(v + size, n)):
            assert np.array_equal(windowed.expectation_of(u),
                                  dense.expectation_of(u))

    @pytest.mark.parametrize("empty", [
        [], np.empty(0, dtype=np.int32), np.empty(0, dtype=np.uint32),
        np.empty(0, dtype=np.int64),
    ], ids=["list", "int32", "uint32", "int64"])
    def test_empty_row_is_a_no_op(self, empty):
        store = SlidingWindowStore(2, 10, num_shards=2)
        store.record(1, np.array([1, 3]))
        before = store.state_dict()
        scratch = np.full(2, 99, dtype=np.int64)
        assert list(store.gather(empty)) == [0, 0]
        assert list(store.gather_into(empty, scratch)) == [0, 0]
        store.record(0, empty)
        after = store.state_dict()
        assert np.array_equal(before.pop("table"), after.pop("table"))
        assert before == after
