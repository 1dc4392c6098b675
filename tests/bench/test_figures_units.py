"""Unit tests for the remaining figure generators (minimal arguments).

The full-size sweeps with shape assertions live in benchmarks/; these
runs use the smallest meaningful arguments so the figure *machinery*
(series alignment, naming, dataset plumbing) is covered in the fast
suite.
"""

import pytest

from repro.bench import (
    ablation_rct,
    ablation_restreaming,
    fig7_window_sweep,
    fig8_9_k_sweep_streaming,
    fig10_11_k_sweep_offline,
    fig12_worker_sweep,
)


class TestKSweeps:
    def test_streaming_sweep_structure(self):
        metrics = fig8_9_k_sweep_streaming("uk2005", ks=(2, 4))
        assert set(metrics) == {"ECR", "delta_v", "delta_e", "PT"}
        ecr = metrics["ECR"]
        assert set(ecr.series) == {"LDG", "FENNEL", "SPN", "SPNL"}
        assert ecr.x_values == [2, 4]
        for values in ecr.series.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_offline_sweep_structure(self):
        metrics = fig10_11_k_sweep_offline("uk2005", ks=(2, 4))
        ecr = metrics["ECR"]
        assert set(ecr.series) == {"METIS-like", "XtraPuLP-like", "SPNL"}
        for values in metrics["PT"].series.values():
            assert all(v > 0 for v in values)


class TestWindowSweep:
    def test_multiple_k(self):
        figures = fig7_window_sweep(dataset="uk2005", shards=(1, 4),
                                    ks=(2, 4))
        assert set(figures) == {2, 4}
        for fig in figures.values():
            assert set(fig.series) == {"MC(MB)", "ECR", "delta_v",
                                       "PT(s)"}
            assert fig.x_values == [1, 4]

    def test_memory_monotone(self):
        figures = fig7_window_sweep(dataset="uk2005", shards=(1, 8),
                                    ks=(4,))
        mc = figures[4].series["MC(MB)"]
        assert mc[1] <= mc[0]


class TestWorkerSweep:
    def test_structure(self, shm_leak_check):
        fig = fig12_worker_sweep(datasets=("uk2005",), workers=(1, 2),
                                 k=4)
        assert fig.x_values == [1, 2]
        assert set(fig.series) == {"PT(uk2005)", "PT(uk2005, sequential)"}
        assert all(v > 0 for v in fig.series["PT(uk2005)"])
        sequential = fig.series["PT(uk2005, sequential)"]
        assert sequential[0] == sequential[1] > 0  # reference line


class TestRctAblation:
    def test_structure(self):
        fig = ablation_rct(dataset="uk2005", parallelisms=(1, 4), k=4)
        assert set(fig.series) == {"ECR(with RCT)", "ECR(no RCT)",
                                   "ECR(serial)"}
        serial = fig.series["ECR(serial)"]
        assert serial[0] == serial[1]  # constant reference line
        # M=1 rows equal the serial value by construction
        assert fig.series["ECR(with RCT)"][0] == serial[0]


class TestRestreamingAblation:
    def test_structure(self):
        fig = ablation_restreaming(dataset="uk2005", k=4, passes=(1, 2))
        assert fig.x_values == [1, 2]
        assert len(fig.series["ECR(ReLDG)"]) == 2
        assert len(set(fig.series["ECR(SPNL, 1 pass)"])) == 1
