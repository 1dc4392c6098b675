"""The top-level facade: ``from repro import partition_stream, ...``."""

import numpy as np
import pytest

from repro import (
    available_partitioners,
    evaluate,
    make_partitioner,
    partition_stream,
)
from repro.graph import GraphStream


class TestExports:
    def test_facade_names_at_top_level(self):
        import repro

        for name in ("partition_stream", "make_partitioner", "evaluate",
                     "available_partitioners"):
            assert name in repro.__all__
            assert callable(getattr(repro, name))

    def test_deep_import_paths_still_work(self):
        # The pre-facade module paths remain the same objects.
        from repro.partitioning.metrics import evaluate as deep_evaluate
        from repro.partitioning.registry import (
            make_partitioner as deep_make,
        )

        assert deep_evaluate is evaluate
        assert deep_make is make_partitioner


class TestPartitionStream:
    def test_streaming_smoke(self, web_graph):
        result = partition_stream(web_graph, "spnl", 8)
        assert result.num_partitions == 8
        quality = evaluate(web_graph, result.assignment)
        assert 0.0 <= quality.ecr <= 1.0
        assert quality.delta_v < 1.2

    def test_matches_direct_construction(self, web_graph):
        facade = partition_stream(web_graph, "ldg", 8, slack=1.2)
        direct = make_partitioner("ldg", 8, slack=1.2).partition(
            GraphStream(web_graph))
        np.testing.assert_array_equal(facade.assignment.route,
                                      direct.assignment.route)

    def test_accepts_existing_stream(self, web_graph):
        result = partition_stream(GraphStream(web_graph), "ldg", 4)
        assert result.assignment.route.shape == (web_graph.num_vertices,)

    def test_order_forwarded(self, web_graph):
        rng = np.random.default_rng(0)
        order = rng.permutation(web_graph.num_vertices)
        a = partition_stream(web_graph, "ldg", 4, order=order)
        b = partition_stream(web_graph, "ldg", 4, order=order)
        np.testing.assert_array_equal(a.assignment.route,
                                      b.assignment.route)

    def test_offline_method_takes_graph_or_stream(self, web_graph):
        for graph in (web_graph, GraphStream(web_graph)):
            result = partition_stream(graph, "metis", 4)
            assert result.assignment.route.shape == \
                (web_graph.num_vertices,)

    def test_offline_method_rejects_bare_stream(self, web_graph):
        class NotAGraph:
            pass

        with pytest.raises(TypeError, match="DiGraph"):
            partition_stream(NotAGraph(), "metis", 4)

    def test_threads_kwarg_refused(self, web_graph):
        # Not dropped with the other unknown kwargs: that would run
        # sequentially without a word.
        with pytest.raises(TypeError, match="ProcessShardedPartitioner.*"
                                            "SimulatedParallelPartitioner"):
            partition_stream(web_graph, "spnl", 8, threads=4)

    def test_unknown_method_lists_names(self, web_graph):
        with pytest.raises(ValueError, match="registered names"):
            partition_stream(web_graph, "not-a-method", 8)

    def test_unknown_kwargs_dropped(self, web_graph):
        # The facade shares one kwargs namespace across methods.
        result = partition_stream(web_graph, "fennel", 8, lam=0.5,
                                  num_shards=4)
        assert result.assignment.route.shape == (web_graph.num_vertices,)

    def test_instrumentation_wires_through(self, web_graph):
        from repro.observability import Instrumentation, MemorySink

        sink = MemorySink()
        with Instrumentation([sink], probe_every=500) as hub:
            result = partition_stream(web_graph, "spnl", 8,
                                      instrumentation=hub)
        assert sink.records[-1]["type"] == "stream_summary"
        assert sink.records[-1]["placements"] == web_graph.num_vertices
        assert result.stats["placements"] == web_graph.num_vertices

    def test_offline_instrumentation_records_timer(self, web_graph):
        from repro.observability import Instrumentation

        hub = Instrumentation()
        partition_stream(web_graph, "metis", 4, instrumentation=hub)
        assert hub.timers["partition.metis"].count == 1


class TestNormalizedStats:
    @pytest.mark.parametrize("method", ["spnl", "spn", "ldg", "fennel",
                                        "hash", "random"])
    def test_common_keys_always_present(self, web_graph, method):
        result = partition_stream(web_graph, method, 8)
        assert result.stats["placements"] == web_graph.num_vertices
        assert result.stats["capacity_overflows"] >= 0
        assert result.stats["expectation_table_entries"] >= 0

    def test_spnl_reports_real_table_size(self, web_graph):
        result = partition_stream(web_graph, "spnl", 8)
        assert result.stats["expectation_table_entries"] > 0
        assert result.stats["expectation_table_bytes"] > 0
        # The legacy key stays for existing consumers.
        assert result.stats["expectation_bytes"] == \
            result.stats["expectation_table_bytes"]
