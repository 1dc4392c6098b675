"""Unit tests for the benchmark harness."""

import pytest

from repro.bench import BenchRecord, run_partitioner
from repro.offline import LabelPropagationPartitioner, MultilevelPartitioner
from repro.partitioning import LDGPartitioner, SPNLPartitioner


class TestRunPartitioner:
    def test_streaming_record(self, web_graph):
        record = run_partitioner(LDGPartitioner(4), web_graph)
        assert record.partitioner == "LDG"
        assert record.graph == web_graph.name
        assert 0.0 <= record.ecr <= 1.0
        assert record.pt_seconds > 0
        assert not record.failed

    def test_offline_record(self, web_graph):
        record = run_partitioner(LabelPropagationPartitioner(4), web_graph)
        assert record.ecr is not None
        assert not record.failed

    def test_memory_measurement(self, web_graph):
        record = run_partitioner(SPNLPartitioner(4), web_graph,
                                 measure_memory=True)
        assert record.mc_bytes > 0

    def test_oom_becomes_failed_record(self, web_graph):
        partitioner = MultilevelPartitioner(4, memory_budget_bytes=100)
        record = run_partitioner(partitioner, web_graph)
        assert record.failed
        assert record.ecr is None
        assert record.as_row()["ECR"] == "F"

    def test_work_units_ordering(self, web_graph):
        """Machine-independent efficiency: streaming << offline."""
        ldg = run_partitioner(LDGPartitioner(4), web_graph)
        spnl = run_partitioner(SPNLPartitioner(4), web_graph)
        metis = run_partitioner(MultilevelPartitioner(4), web_graph)
        assert ldg.work_units < spnl.work_units < metis.work_units

    def test_as_row_shape(self, web_graph):
        row = run_partitioner(LDGPartitioner(4), web_graph).as_row()
        assert {"graph", "method", "K", "ECR", "delta_v", "delta_e",
                "PT(s)"} <= set(row)

