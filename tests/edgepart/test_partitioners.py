"""Unit tests for the streaming edge partitioners: HDRF and SPNL-E."""

import numpy as np
import pytest

from repro.edgepart import (
    HDRFPartitioner,
    SPNLEdgePartitioner,
    evaluate_edges,
)


def _rf(result, graph):
    return evaluate_edges(graph, result.assignment).replication_factor


@pytest.fixture(scope="module")
def runs(edge_graph):
    return {"hdrf": HDRFPartitioner(8).partition(edge_graph),
            "spnl_e": SPNLEdgePartitioner(8).partition(edge_graph)}


class TestQualityOrdering:
    def test_spnl_e_wins(self, runs, edge_graph):
        """The paper's future-work claim: its techniques transfer."""
        assert _rf(runs["spnl_e"], edge_graph) < _rf(runs["hdrf"],
                                                     edge_graph)

    def test_rf_at_least_one(self, runs, edge_graph):
        assert all(_rf(run, edge_graph) >= 1.0 for run in runs.values())


class TestSPNLE:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            SPNLEdgePartitioner(4, mu=-1)

    def test_stats_expose_window(self, edge_graph):
        result = SPNLEdgePartitioner(4).partition(edge_graph)
        assert result.stats["window_size"] > 0
        assert result.stats["mu"] == 1.0

    def test_balance_respected(self, edge_graph):
        result = SPNLEdgePartitioner(8, slack=1.1).partition(edge_graph)
        q = evaluate_edges(edge_graph, result.assignment)
        assert q.load_balance <= 1.11

    def test_locality_drives_the_win(self, runs, edge_graph):
        """Disable both knowledge terms → exactly plain HDRF."""
        plain = SPNLEdgePartitioner(8, mu=0.0, nu=0.0).partition(edge_graph)
        assert _rf(runs["spnl_e"], edge_graph) < _rf(plain, edge_graph)
        assert np.array_equal(plain.assignment.edge_pids,
                              runs["hdrf"].assignment.edge_pids)
