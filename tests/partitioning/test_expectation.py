"""Unit tests for the dense expectation store (Γ tables)."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph import AdjacencyRecord
from repro.partitioning import FullExpectationStore
from repro.partitioning.base import PlacementKernel
from repro.partitioning.expectation import INT32_SUM_END
from repro.partitioning.registry import make_partitioner


class TestFullStore:
    def test_initially_zero(self):
        store = FullExpectationStore(3, 10)
        assert list(store.expectation_of(5)) == [0, 0, 0]

    def test_record_counts_out_edges(self):
        store = FullExpectationStore(3, 10)
        store.record(1, np.array([2, 5, 7]))
        assert list(store.expectation_of(2)) == [0, 1, 0]
        assert list(store.expectation_of(5)) == [0, 1, 0]
        assert list(store.expectation_of(3)) == [0, 0, 0]

    def test_repeated_records_accumulate(self):
        store = FullExpectationStore(2, 10)
        store.record(0, np.array([4]))
        store.record(0, np.array([4]))
        store.record(1, np.array([4]))
        assert list(store.expectation_of(4)) == [2, 1]

    def test_duplicate_neighbors_in_one_record(self):
        store = FullExpectationStore(2, 10)
        store.record(0, np.array([4, 4, 4]))
        # np.add.at must count each occurrence (not buffered +1)
        assert store.expectation_of(4)[0] == 3

    def test_gather_sums_over_neighbors(self):
        store = FullExpectationStore(2, 10)
        store.record(0, np.array([1, 2]))
        store.record(1, np.array([2, 3]))
        gathered = store.gather(np.array([1, 2, 3]))
        assert list(gathered) == [2, 2]

    def test_gather_empty(self):
        store = FullExpectationStore(2, 10)
        assert list(store.gather(np.array([], dtype=np.int64))) == [0, 0]

    def test_record_empty_noop(self):
        store = FullExpectationStore(2, 10)
        store.record(0, np.array([], dtype=np.int64))
        assert store.nbytes() > 0

    def test_advance_is_noop(self):
        store = FullExpectationStore(2, 10)
        store.record(0, np.array([1]))
        store.advance_to(9)
        assert store.expectation_of(1)[0] == 1

    def test_nbytes_scales_with_size(self):
        small = FullExpectationStore(2, 10)
        large = FullExpectationStore(4, 1000)
        assert large.nbytes() > small.nbytes()

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            FullExpectationStore(0, 10)

    def test_window_size_is_full_range(self):
        assert FullExpectationStore(2, 42).window_size == 42


#: Near 2**30: four such counters sum past what the int32 tables hold.
BIG = 2 ** 30 - 3


def assert_exact_wide_sums(store, vertex, neighbors, lanes):
    """Every read of ``store`` that sums rows returns the int64 total of
    ``lanes`` (the planted per-partition counters, one value per row)."""
    lanes = np.asarray(lanes, dtype=np.int64)
    rows = len(neighbors)
    gathered = store.gather(neighbors)
    assert gathered.dtype == np.int64
    assert gathered.tolist() == (rows * lanes).tolist()
    out = np.empty(len(lanes), dtype=np.int64)
    assert store.gather_into(neighbors, out) is out
    assert out.tolist() == (rows * lanes).tolist()
    assert store.combined_into(vertex, neighbors, out) is out
    assert out.tolist() == ((rows + 1) * lanes).tolist()


class TestSumWidth:
    """A neighbourhood sum may pass 2**31 although no counter does."""

    def test_dense_sums_are_exact_past_int32(self):
        store = FullExpectationStore(3, 10)
        store._table[:] = [BIG, BIG - 1, 7]
        assert_exact_wide_sums(store, 0, np.array([1, 4, 4, 9]),
                               [BIG, BIG - 1, 7])

    @pytest.mark.parametrize("method", ["spn", "spnl"])
    @pytest.mark.parametrize("gamma", [
        {}, {"num_shards": 2},
        {"gamma_buckets": 5}],
        ids=["dense", "window", "hashed"])
    @pytest.mark.parametrize("placed_edges,width", [
        (INT32_SUM_END // 4 - 1, np.int32),   # 4·e = 2**31 - 4: proven
        (INT32_SUM_END // 4, np.int64),       # 4·e = 2**31: not proven
        (INT32_SUM_END // 4 + 1, np.int64),
        (BIG, np.int64),
    ], ids=["below", "at", "above", "far-above"])
    def test_fused_in_term_width_follows_the_guard(
            self, method, gamma, placed_edges, width):
        """The fused scorer sums Γ(v) + three rows in the table's own
        dtype only while ``rows · placed_edges`` proves the sum fits
        (no counter exceeds the edges placed); planted at that bound,
        the in-term is exact on either side of it."""
        shape = SimpleNamespace(num_vertices=16, num_edges=64,
                                is_id_ordered=True)
        partitioner = make_partitioner(method, 3, **gamma)
        state = partitioner.make_state(shape)
        partitioner._setup(shape, state)
        store = partitioner.expectation_store
        store._table[:] = [placed_edges, placed_edges - 1, 5]
        state.placed_edges = placed_edges
        seen = []
        combined_into = store.combined_into

        def spy(vertex, neighbors, out):
            result = combined_into(vertex, neighbors, out)
            seen.append((out.dtype, result.tolist()))
            return result

        store.combined_into = spy  # the kernel binds it when it is built
        neighbors = np.array([1, 2, 2])
        kernel = PlacementKernel(partitioner, state)
        scores = kernel.score(0, neighbors).copy()
        assert seen == [(width, [4 * placed_edges, 4 * placed_edges - 4,
                                 20])]
        assert np.array_equal(scores, partitioner._score(
            AdjacencyRecord(0, neighbors), state))


#: The three mappings of one table: ids as rows, a hashed table wide
#: enough to map ids by identity (what ``gamma_buckets="auto"`` gives
#: any graph under 16k vertices), and a hashed table whose ids collide.
MAPPINGS = pytest.mark.parametrize(
    "num_buckets", [None, 64, 5],
    ids=["dense", "identity-hashed", "colliding-hashed"])


def assert_reads_and_writes(store, table, lanes):
    """``store``'s fused access reads the planted ``lanes`` (every row of
    ``table`` holds them) and records into ``table``."""
    neighbors = np.array([1, 17, 17, 39])
    table[:] = lanes
    assert_exact_wide_sums(store, 0, neighbors, lanes)
    out = np.empty(len(lanes), dtype=np.int64)
    assert store.expectation_of_into(3, out).tolist() == list(lanes)
    before = int(table[:, 2].sum())
    store.record(2, neighbors)
    assert int(table[:, 2].sum()) == before + len(neighbors)


class TestBoundAccess:
    """The fused access is bound to one table; what rebinds the table
    must bind it again."""

    @MAPPINGS
    def test_attach_shared_lanes_rebinds(self, num_buckets):
        store = FullExpectationStore(3, 40, num_buckets=num_buckets)
        old = store._table
        new = np.zeros_like(old)
        store.attach_shared_lanes({"table": new})
        old[:] = 9
        assert_reads_and_writes(store, new, [BIG, BIG - 1, 7])
        assert (old == 9).all()

    @MAPPINGS
    def test_a_deep_copy_binds_its_own_table(self, num_buckets):
        store = FullExpectationStore(3, 40, num_buckets=num_buckets)
        twin = copy.deepcopy(store)
        assert twin._table is not store._table
        store._table[:] = 9
        assert_reads_and_writes(twin, twin._table, [4, 5, 6])
        assert (store._table == 9).all()
