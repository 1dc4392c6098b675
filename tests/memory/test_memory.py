"""Unit tests for the analytic memory models and the tracemalloc tracker."""

import numpy as np
import pytest

from repro.memory import (
    measure_peak,
    offline_bytes,
    spn_bytes,
    spnl_bytes,
    streaming_baseline_bytes,
    trace_peak,
)


class TestAnalyticModels:
    def test_ldg_components(self):
        est = streaming_baseline_bytes(1000, 32, 50)
        assert set(est.breakdown) == {"route_table", "score_vector",
                                      "record_buffer"}
        assert est.total_bytes == sum(est.breakdown.values())

    def test_spn_adds_expectation_tables(self):
        base = streaming_baseline_bytes(1000, 32, 50)
        spn = spn_bytes(1000, 32, 50, num_shards=1)
        assert spn.total_bytes > base.total_bytes
        assert spn.breakdown["expectation_tables"] == 32 * 1000 * 4

    def test_window_divides_expectation_cost(self):
        full = spn_bytes(10_000, 32, 50, num_shards=1)
        windowed = spn_bytes(10_000, 32, 50, num_shards=100)
        ratio = (full.breakdown["expectation_tables"]
                 / windowed.breakdown["expectation_tables"])
        assert ratio == pytest.approx(100, rel=0.02)

    def test_monotone_in_shards(self):
        sizes = [spn_bytes(10_000, 32, 50, num_shards=x).total_bytes
                 for x in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_spnl_adds_logical_tables(self):
        spn = spn_bytes(1000, 32, 50, num_shards=4)
        spnl = spnl_bytes(1000, 32, 50, num_shards=4)
        assert spnl.total_bytes > spn.total_bytes
        assert "logical_tables" in spnl.breakdown

    def test_offline_scales_with_edges(self):
        small = offline_bytes(1000, 10_000)
        big = offline_bytes(1000, 100_000)
        assert big.total_bytes > 5 * small.total_bytes

    def test_table4_ordering(self):
        """The paper's Table IV ordering must hold in the models:
        LDG ≈ SPNL(X=128) « SPNL(X=1), and offline ≥ graph size."""
        n, k, maxd = 10**6, 32, 10_000
        ldg = streaming_baseline_bytes(n, k, maxd).total_bytes
        spnl_full = spnl_bytes(n, k, maxd, 1).total_bytes
        spnl_win = spnl_bytes(n, k, maxd, 128).total_bytes
        assert spnl_full > 10 * ldg
        assert spnl_win < 2 * ldg
        metis = offline_bytes(n, 10**7, "METIS", 2.5).total_bytes
        assert metis > spnl_win

    def test_as_row(self):
        row = spn_bytes(1000, 8, 10).as_row()
        assert "MC(MB)" in row and row["method"] == "SPN"


class TestTracker:
    def test_detects_allocation(self):
        with trace_peak() as peak:
            data = np.zeros(1_000_000, dtype=np.int64)  # 8 MB
            del data
        assert peak.peak_bytes > 7_000_000

    def test_measure_peak_returns_result(self):
        result, peak = measure_peak(lambda: sum(range(10)))
        assert result == 45
        assert peak >= 0

    def test_small_block_small_peak(self):
        with trace_peak() as peak:
            _ = [1, 2, 3]
        assert peak.peak_bytes < 1_000_000
