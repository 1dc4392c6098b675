"""Tests for the hashed Γ table and its SPN/SPNL wiring."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import PartitionConfig
from repro.graph import GraphStream, community_web_graph, shuffled
from repro.partitioning.expectation import (
    FullExpectationStore,
    make_expectation_store,
)
from repro.partitioning.registry import make_partitioner
from repro.partitioning.spn import SPNPartitioner
from repro.partitioning.window import SlidingWindowStore

from .test_expectation import BIG, assert_exact_wide_sums


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(600, seed=5)


class TestStoreSemantics:
    def test_identity_mapping_matches_dense(self, rng):
        """With ``num_buckets >= num_vertices`` the store must be
        bit-identical to the dense table on every API call."""
        dense = FullExpectationStore(4, 50)
        hashed = FullExpectationStore(4, 50, num_buckets=64)
        for _ in range(200):
            pid = int(rng.integers(4))
            nbrs = rng.integers(0, 50, size=int(rng.integers(0, 8)))
            nbrs = nbrs.astype(np.int64)
            dense.record(pid, nbrs)
            hashed.record(pid, nbrs)
        for v in range(50):
            np.testing.assert_array_equal(dense.expectation_of(v),
                                          hashed.expectation_of(v))
        probe = rng.integers(0, 50, size=12).astype(np.int64)
        np.testing.assert_array_equal(dense.gather(probe),
                                      hashed.gather(probe))
        out_d = np.empty(4, dtype=np.int64)
        out_h = np.empty(4, dtype=np.int64)
        np.testing.assert_array_equal(dense.gather_into(probe, out_d),
                                      hashed.gather_into(probe, out_h))

    def test_buckets_capped_at_num_vertices(self):
        store = FullExpectationStore(2, 10, num_buckets=1000)
        assert store.num_buckets == 10
        assert store.window_size == 10

    def test_scalar_and_vector_hash_agree(self, rng):
        store = FullExpectationStore(2, 10_000, num_buckets=97)
        ids = rng.integers(0, 10_000, size=500).astype(np.int64)
        vector = store._buckets(ids)
        scalar = [store._bucket_of(int(v)) for v in ids]
        np.testing.assert_array_equal(np.asarray(vector, dtype=np.int64),
                                      np.asarray(scalar, dtype=np.int64))

    def test_memory_bounded_by_buckets(self):
        small = FullExpectationStore(8, 100_000, num_buckets=512)
        dense = FullExpectationStore(8, 100_000)
        assert small.nbytes() == 512 * 8 * 4
        assert small.nbytes() < dense.nbytes() // 100

    def test_validation(self):
        with pytest.raises(ValueError, match="num_buckets"):
            FullExpectationStore(2, 10, num_buckets=0)
        with pytest.raises(ValueError, match="invalid dimensions"):
            FullExpectationStore(0, 10, num_buckets=4)

    @pytest.mark.parametrize("buckets", [5, 64], ids=["hashed", "identity"])
    def test_sums_are_exact_past_int32(self, buckets):
        """Colliding or not, four bucket rows near 2**30 each sum to a
        total that needs 64 bits."""
        store = FullExpectationStore(3, 40, num_buckets=buckets)
        store._table[:] = [BIG, BIG - 1, 7]
        assert_exact_wide_sums(store, 0, np.array([1, 17, 17, 39]),
                               [BIG, BIG - 1, 7])

    def test_state_round_trip(self, rng):
        store = FullExpectationStore(3, 100, num_buckets=32)
        store.record(1, rng.integers(0, 100, size=20).astype(np.int64))
        payload = store.state_dict()
        fresh = FullExpectationStore(3, 100, num_buckets=32)
        fresh.load_state(payload)
        np.testing.assert_array_equal(store._table, fresh._table)
        wrong_width = FullExpectationStore(3, 100, num_buckets=16)
        with pytest.raises(ValueError, match="gamma_buckets"):
            wrong_width.load_state(payload)
        with pytest.raises(ValueError, match="Γ store"):
            fresh.load_state({"kind": "full", "table": store._table})

    def test_snapshot_payload_layout_is_kept(self):
        """Snapshots of either mapping keep the keys and ``kind`` they
        were written with, so old ``.snap`` files resume."""
        dense = FullExpectationStore(2, 10).state_dict()
        assert list(dense) == ["kind", "table"] and dense["kind"] == "full"
        for buckets in (4, 64):
            hashed = FullExpectationStore(2, 10,
                                          num_buckets=buckets).state_dict()
            assert list(hashed) == ["kind", "table", "num_buckets"]
            assert hashed["kind"] == "hashed"
            assert hashed["num_buckets"] == min(buckets, 10)


def _stream(num_vertices, id_ordered=True):
    return SimpleNamespace(num_vertices=num_vertices,
                           is_id_ordered=id_ordered)


class TestSelection:
    """``num_shards`` and ``gamma_buckets`` alone pick the table."""

    @pytest.mark.parametrize("num_shards", [1, "auto"])
    def test_buckets_set_means_hashed(self, num_shards):
        store = make_expectation_store(4, _stream(100_000, False),
                                       num_shards=num_shards,
                                       gamma_buckets=512)
        assert store.state_dict()["kind"] == "hashed"
        assert store.window_size == 512

    def test_auto_buckets_follow_the_vertex_count(self):
        for n, rows in ((500, 500), (10_000, 1024), (100_000, 6250)):
            store = make_expectation_store(2, _stream(n),
                                           gamma_buckets="auto")
            assert store.num_buckets == rows

    def test_shards_above_one_mean_the_window(self):
        store = make_expectation_store(4, _stream(1000), num_shards=8)
        assert isinstance(store, SlidingWindowStore)
        assert store.num_shards == 8
        auto = make_expectation_store(2, _stream(100_000),
                                      num_shards="auto")
        assert isinstance(auto, SlidingWindowStore)
        with pytest.raises(ValueError, match="id-ordered"):
            make_expectation_store(4, _stream(1000, False), num_shards=8)

    @pytest.mark.parametrize("num_shards", [1, "auto"])
    def test_otherwise_dense(self, num_shards):
        store = make_expectation_store(4, _stream(300, False),
                                       num_shards=num_shards)
        assert store.state_dict()["kind"] == "full"
        assert store.num_buckets is None
        assert store.window_size == 300


class TestSPNWiring:
    def test_hashed_wide_matches_dense_routes(self, graph):
        """B >= |V| pins the hashed SPN/SPNL routes to the dense ones,
        on both the record and the fast path."""
        for method in ("spn", "spnl"):
            for fast in (True, False):
                ref = make_partitioner(
                    method, 8).partition(
                    GraphStream(graph), fast=fast).assignment.route
                got = make_partitioner(
                    method, 8, gamma_buckets=graph.num_vertices).partition(
                    GraphStream(graph), fast=fast).assignment.route
                np.testing.assert_array_equal(ref, got)

    def test_fast_matches_record_when_capped(self, graph):
        """Aliasing changes quality, never fast-vs-record identity."""
        kwargs = dict(gamma_buckets=128)
        fast = make_partitioner("spn", 8, **kwargs).partition(
            GraphStream(graph), fast=True).assignment.route
        record = make_partitioner("spn", 8, **kwargs).partition(
            GraphStream(graph), fast=False).assignment.route
        np.testing.assert_array_equal(fast, record)

    def test_works_on_shuffled_streams(self, graph):
        """The windowed store demands id order; hashed must not."""
        stream = shuffled(graph, seed=9)
        result = make_partitioner(
            "spn", 8, gamma_buckets=256).partition(stream)
        assert int((result.assignment.route >= 0).sum()) \
            == graph.num_vertices

    def test_stats_report_store(self, graph):
        result = make_partitioner(
            "spn", 8, gamma_buckets=256).partition(GraphStream(graph))
        assert result.stats["gamma_store"] == "hashed"
        assert result.stats["gamma_buckets"] == 256

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="gamma_buckets"):
            SPNPartitioner(4, gamma_buckets=0)
        with pytest.raises(ValueError, match="gamma_buckets"):
            SPNPartitioner(4, gamma_buckets="bogus")
        with pytest.raises(ValueError, match="num_shards"):
            SPNPartitioner(4, gamma_buckets=64, num_shards=4)

    @pytest.mark.parametrize("build", [
        lambda: SPNPartitioner(4, gamma_store="hashed"),
        lambda: make_partitioner("spnl", 4, ignore_unknown=True,
                                 gamma_store="dense"),
        lambda: PartitionConfig.from_dict(
            {"method": "spnl", "num_partitions": 4,
             "gamma_store": "window"}).make(),
    ], ids=["constructor", "registry", "config"])
    def test_removed_gamma_store_is_refused_not_dropped(self, build):
        with pytest.raises(TypeError, match="num_shards and gamma_buckets"):
            build()

    def test_auto_buckets(self, graph):
        result = make_partitioner("spnl", 8, gamma_buckets="auto") \
            .partition(shuffled(graph, seed=3))
        assert result.stats["gamma_store"] == "hashed"
        assert result.stats["gamma_buckets"] == graph.num_vertices

    def test_checkpoint_resume_identity(self, graph, tmp_path):
        from repro.recovery.checkpoint import (latest_snapshot,
                                               partition_with_checkpoints,
                                               resume_partition)
        kwargs = dict(gamma_buckets=128)
        ref = make_partitioner("spn", 8, **kwargs).partition(
            GraphStream(graph)).assignment.route
        partition_with_checkpoints(
            make_partitioner("spn", 8, **kwargs), GraphStream(graph),
            tmp_path / "ckpt", every=217)
        snap = latest_snapshot(tmp_path / "ckpt")
        resumed = resume_partition(
            make_partitioner("spn", 8, **kwargs), GraphStream(graph),
            snap).assignment.route
        np.testing.assert_array_equal(ref, resumed)
