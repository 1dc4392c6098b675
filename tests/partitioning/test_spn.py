"""Unit tests for SPN, including the paper's Figure 2 worked example."""

import numpy as np
import pytest

from repro.graph import AdjacencyRecord, GraphStream, from_edges
from repro.partitioning import (
    LDGPartitioner,
    PartitionState,
    SPNPartitioner,
    evaluate,
)


class _FixedStream:
    """Minimal stream stub for manual setup."""

    def __init__(self, num_vertices, num_edges=0, is_id_ordered=True):
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.is_id_ordered = is_id_ordered

    def __iter__(self):
        return iter(())


def _spn_with_figure_state(adjacency, placement, *, lam=0.5,
                           in_estimator="self", k=3, n=16):
    """Rebuild Figure 2's local view inside an SPN instance."""
    partitioner = SPNPartitioner(k, lam=lam, in_estimator=in_estimator)
    state = PartitionState(k, n, 32, slack=1.1)
    partitioner._setup(_FixedStream(n), state)
    for v, pid in placement.items():
        record = AdjacencyRecord(v, np.asarray(adjacency[v],
                                               dtype=np.int64))
        state.commit(record, pid)
        partitioner._after_commit(record, pid, state)
    return partitioner, state


class TestPaperFigure2:
    """Sec. IV-B worked example: in-score (0,1,1), out (0,0,1) → P3."""

    def test_in_term_matches_figure(self, paper_fig1_state):
        adjacency, placement = paper_fig1_state
        partitioner, state = _spn_with_figure_state(adjacency, placement)
        record = AdjacencyRecord(7, np.asarray(adjacency[7],
                                               dtype=np.int64))
        # Γ_i(7): placed vertex 2 (P2) and 6 (P3) both link to 7.
        in_term = partitioner._in_term(record)
        assert list(in_term) == [0, 1, 1]

    def test_vertex7_placed_in_p3(self, paper_fig1_state):
        adjacency, placement = paper_fig1_state
        partitioner, state = _spn_with_figure_state(adjacency, placement)
        record = AdjacencyRecord(7, np.asarray(adjacency[7],
                                               dtype=np.int64))
        assert partitioner.place(record, state) == 2

    def test_combined_score_ordering(self, paper_fig1_state):
        adjacency, placement = paper_fig1_state
        partitioner, state = _spn_with_figure_state(adjacency, placement)
        record = AdjacencyRecord(7, np.asarray(adjacency[7],
                                               dtype=np.int64))
        scores = partitioner._score(record, state)
        # paper combined (0, 1, 2) up to the λ scaling and weights
        assert scores[2] > scores[1] > scores[0] == 0


class TestLDGEquivalence:
    def test_lambda_one_equals_ldg(self, web_graph):
        """SPN with λ=1 ignores Γ entirely → identical placements to LDG."""
        spn = SPNPartitioner(8, lam=1.0).partition(GraphStream(web_graph))
        ldg = LDGPartitioner(8).partition(GraphStream(web_graph))
        assert spn.assignment == ldg.assignment


class TestDirectedChain:
    def test_in_neighbors_rescue_one_way_edges(self):
        """A one-way chain gives LDG zero signal (targets arrive after
        sources and never look back), but SPN's Γ counters catch it."""
        n = 64
        g = from_edges([(i, i + 1) for i in range(n - 1)],
                       num_vertices=n, name="chain")
        ldg = LDGPartitioner(4, slack=1.05).partition(GraphStream(g))
        spn = SPNPartitioner(4, slack=1.05, lam=0.5).partition(
            GraphStream(g))
        assert evaluate(g, spn.assignment).ecr < evaluate(
            g, ldg.assignment).ecr


class TestConfiguration:
    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            SPNPartitioner(4, lam=1.5)

    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            SPNPartitioner(4, num_shards=0)
        with pytest.raises(ValueError, match="num_shards"):
            SPNPartitioner(4, num_shards="many")

    def test_invalid_estimator(self):
        with pytest.raises(ValueError, match="in_estimator"):
            SPNPartitioner(4, in_estimator="psychic")

    def test_store_requires_setup(self):
        with pytest.raises(RuntimeError, match="set up"):
            SPNPartitioner(4).expectation_store

    def test_window_rejects_shuffled_stream(self, web_graph):
        from repro.graph import shuffled
        p = SPNPartitioner(4, num_shards=8)
        with pytest.raises(ValueError, match="id-ordered"):
            p.partition(shuffled(web_graph, seed=1))

    def test_full_store_accepts_shuffled_stream(self, web_graph):
        from repro.graph import shuffled
        result = SPNPartitioner(4, num_shards=1).partition(
            shuffled(web_graph, seed=1))
        result.assignment.validate(web_graph.num_vertices)

    def test_auto_shards_resolved_at_setup(self, web_graph):
        p = SPNPartitioner(8, num_shards="auto")
        result = p.partition(GraphStream(web_graph))
        assert "expectation_table_bytes" in result.stats


class TestWindowedQuality:
    def test_windowed_close_to_full(self, web_graph):
        """A modest X must not meaningfully hurt ECR (paper Fig. 7b)."""
        full = SPNPartitioner(8, num_shards=1).partition(
            GraphStream(web_graph))
        windowed = SPNPartitioner(8, num_shards=4).partition(
            GraphStream(web_graph))
        full_ecr = evaluate(web_graph, full.assignment).ecr
        win_ecr = evaluate(web_graph, windowed.assignment).ecr
        assert win_ecr <= full_ecr * 1.25 + 0.02

    def test_stats_expose_window_losses(self, web_graph):
        result = SPNPartitioner(8, num_shards=16).partition(
            GraphStream(web_graph))
        assert result.stats["window_size"] < web_graph.num_vertices
        assert result.stats["skipped_future"] >= 0

    def test_estimators_both_complete(self, web_graph):
        for est in ("self", "neighborhood"):
            result = SPNPartitioner(8, in_estimator=est).partition(
                GraphStream(web_graph))
            result.assignment.validate(web_graph.num_vertices)
