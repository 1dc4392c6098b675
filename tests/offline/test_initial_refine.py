"""Unit tests for initial partitioning and boundary refinement."""

import numpy as np
import pytest

from repro.graph import (
    community_web_graph,
    from_edges,
    grid_graph,
    ring_of_cliques,
)
from repro.offline import (
    WeightedGraph,
    partition_edge_cut,
    refine,
    region_growing_partition,
)


def _wg(digraph):
    return WeightedGraph.from_digraph(digraph)


class TestRegionGrowing:
    def test_complete_cover(self):
        wg = _wg(community_web_graph(500, seed=1))
        part = region_growing_partition(wg, 4, seed=0)
        assert (part >= 0).all()
        assert part.max() <= 3

    def test_balance_within_slack(self):
        wg = _wg(community_web_graph(800, seed=1))
        part = region_growing_partition(wg, 4, slack=1.1, seed=0)
        counts = np.bincount(part, weights=wg.vertex_weights, minlength=4)
        assert counts.max() <= 1.1 * 800 / 4 + 1

    def test_regions_are_cohesive_on_grid(self, grid):
        wg = _wg(grid)
        part = region_growing_partition(wg, 4, seed=0)
        # region growing on a grid must beat random scatter decisively
        rng = np.random.default_rng(0)
        random_part = rng.integers(0, 4, wg.num_vertices).astype(np.int32)
        assert partition_edge_cut(wg, part) < 0.7 * partition_edge_cut(
            wg, random_part)

    def test_single_partition(self):
        wg = _wg(community_web_graph(100, seed=1))
        part = region_growing_partition(wg, 1, seed=0)
        assert (part == 0).all()

    def test_invalid_k(self):
        wg = _wg(community_web_graph(100, seed=1))
        with pytest.raises(ValueError):
            region_growing_partition(wg, 0)


class TestPartitionEdgeCut:
    def test_hand_computed(self, tiny_graph):
        wg = _wg(tiny_graph)
        part = np.array([0, 0, 1, 1, 1], dtype=np.int32)
        # undirected cut edges: {0,2},{1,2},{0,4} each weight 1 → 3
        assert partition_edge_cut(wg, part) == 3

    def test_single_block_zero(self, tiny_graph):
        wg = _wg(tiny_graph)
        assert partition_edge_cut(wg, np.zeros(5, dtype=np.int32)) == 0


class TestRefine:
    def test_closes_a_closable_cut(self):
        wg = _wg(from_edges([(0, 1), (1, 0), (0, 2), (2, 0)],
                            num_vertices=3))
        part = np.array([0, 1, 1], dtype=np.int32)
        refined = refine(wg, part, 2, slack=2.0)
        assert partition_edge_cut(wg, refined) < partition_edge_cut(
            wg, part)

    def test_never_worsens_cut(self):
        wg = _wg(community_web_graph(600, seed=2))
        rng = np.random.default_rng(3)
        part = rng.integers(0, 4, wg.num_vertices).astype(np.int32)
        before = partition_edge_cut(wg, part)
        after_part = refine(wg, part, 4, slack=1.2)
        assert partition_edge_cut(wg, after_part) <= before

    def test_improves_bad_partition_substantially(self, cliques_graph):
        wg = _wg(cliques_graph)
        rng = np.random.default_rng(3)
        part = rng.integers(0, 8, wg.num_vertices).astype(np.int32)
        before = partition_edge_cut(wg, part)
        after = partition_edge_cut(wg, refine(wg, part, 8, slack=1.5), )
        assert after < 0.8 * before

    def test_respects_balance_quota(self):
        wg = _wg(community_web_graph(600, seed=2))
        rng = np.random.default_rng(3)
        part = rng.integers(0, 4, wg.num_vertices).astype(np.int32)
        refined = refine(wg, part, 4, slack=1.05)
        counts = np.bincount(refined, weights=wg.vertex_weights,
                             minlength=4)
        assert counts.max() <= 1.05 * 600 / 4 + 1

    def test_input_not_mutated(self):
        wg = _wg(community_web_graph(300, seed=2))
        part = np.zeros(wg.num_vertices, dtype=np.int32)
        part[:150] = 1
        snapshot = part.copy()
        refine(wg, part, 2)
        assert np.array_equal(part, snapshot)

    def test_no_movement_when_optimal(self, cliques_graph):
        wg = _wg(cliques_graph)
        # perfect partitioning: one clique per partition
        part = (np.arange(wg.num_vertices) // 6).astype(np.int32)
        refined = refine(wg, part, 8, slack=1.1)
        assert partition_edge_cut(wg, refined) == partition_edge_cut(
            wg, part)
