"""StreamProbe correctness: hand-computed trajectories, schema, identity."""

import numpy as np
import pytest

from repro.graph import GraphStream, community_web_graph, from_edges
from repro.observability import (
    Instrumentation,
    MemorySink,
    validate_record,
)
from repro.partitioning import make_partitioner
from repro.partitioning.base import PartitionState


@pytest.fixture
def back_edge_graph():
    """4 vertices whose out-edges all point at earlier ids.

    Edges: 1→0, 2→0, 2→1, 3→1 — so in id-order streaming every edge is
    *resolved* the moment its source arrives, making the running ECR
    estimate exactly hand-computable.
    """
    return from_edges([(1, 0), (2, 0), (2, 1), (3, 1)],
                      num_vertices=4, name="back-edges")


class TestHandComputedTrajectory:
    def test_ecr_estimate_trajectory(self, back_edge_graph):
        """Drive the probe with a fixed placement and check every window.

        Placements: v0→0, v1→1, v2→0, v3→1.  Resolved/cut after each:
        v0 (no out-edges) 0/0; v1 (1→0 crosses) 1/1; v2 (2→0 local,
        2→1 crosses) 3/2; v3 (3→1 local) 4/2.  ECR trajectory:
        None, 1.0, 2/3, 0.5.
        """
        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=1)
        state = PartitionState(2, 4, 4)
        probe = hub.stream_probe(None, state)
        placement = {0: 0, 1: 1, 2: 0, 3: 1}
        for record in GraphStream(back_edge_graph):
            pid = placement[record.vertex]
            state.commit(record, pid)
            probe.observe(record.vertex, record.neighbors, pid)
        probe.finish(0.01)

        probes = [r for r in sink.records if r["type"] == "stream_probe"]
        assert [r["ecr_estimate"] for r in probes] == \
            [None, 1.0, pytest.approx(2 / 3), 0.5]
        assert [r["resolved_edges"] for r in probes] == [0, 1, 3, 4]
        assert [r["cut_edges"] for r in probes] == [0, 1, 2, 2]
        assert [r["placements"] for r in probes] == [1, 2, 3, 4]
        assert [r["window"] for r in probes] == [1, 2, 3, 4]
        # Final loads: two vertices per partition → skew exactly 1.0.
        assert probes[-1]["loads"] == [2, 2]
        assert probes[-1]["load_skew"] == 1.0

        summary = sink.records[-1]
        assert summary["type"] == "stream_summary"
        assert summary["placements"] == 4
        assert summary["ecr_estimate"] == 0.5
        assert summary["capacity_overflows"] == 0

    def test_memoized_and_fallback_paths_agree(self, back_edge_graph):
        """Pre-tallied neighbor counts give the same resolved/cut tally."""
        tallies = []
        for use_memo in (False, True):
            sink = MemorySink()
            hub = Instrumentation([sink], probe_every=1)
            state = PartitionState(2, 4, 4)
            probe = hub.stream_probe(None, state)
            placement = {0: 0, 1: 1, 2: 0, 3: 1}
            for record in GraphStream(back_edge_graph):
                if use_memo:  # what the scoring loop does before choose()
                    state.neighbor_partition_counts(record.neighbors)
                pid = placement[record.vertex]
                state.commit(record, pid)
                probe.observe(record.vertex, record.neighbors, pid)
            tallies.append((probe.resolved_edges, probe.cut_edges))
        assert tallies[0] == tallies[1] == (4, 2)

    def test_window_size_respected(self, web_graph):
        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=256)
        partitioner = make_partitioner("spnl", 8)
        partitioner.partition(GraphStream(web_graph), instrumentation=hub)
        probes = [r for r in sink.records if r["type"] == "stream_probe"]
        assert len(probes) == web_graph.num_vertices // 256
        assert [r["placements"] for r in probes] == \
            [256 * (i + 1) for i in range(len(probes))]

    def test_margin_window_statistics(self):
        """A window's margin stats come from that window only."""
        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=2)
        state = PartitionState(2, 4, 0)
        probe = hub.stream_probe(None, state)

        no_neighbors = np.empty(0, dtype=np.int64)
        for margin in (1.0, 3.0):  # window 1: mean 2.0, min 1.0
            probe.observe(0, no_neighbors, 0, margin)
        for margin in (0.5, None):  # window 2: one sample
            probe.observe(0, no_neighbors, 0, margin)
        w1, w2 = sink.records
        assert w1["score_margin_mean"] == 2.0
        assert w1["score_margin_min"] == 1.0
        assert w2["score_margin_mean"] == 0.5
        assert w2["score_margin_min"] == 0.5


class TestSchemaConformance:
    @pytest.mark.parametrize("method", ["spnl", "spn", "ldg", "fennel",
                                        "hash"])
    def test_every_emitted_record_validates(self, web_graph, method):
        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=300)
        partitioner = make_partitioner(method, 8, ignore_unknown=True)
        partitioner.partition(GraphStream(web_graph), instrumentation=hub)
        assert sink.records  # probes plus the summary
        for record in sink.records:
            validate_record(record)
        assert sink.records[-1]["type"] == "stream_summary"

    def test_spnl_gauges_present(self, web_graph):
        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=500)
        make_partitioner("spnl", 8).partition(GraphStream(web_graph),
                                              instrumentation=hub)
        probe = next(r for r in sink.records
                     if r["type"] == "stream_probe")
        assert probe["expectation_table_entries"] > 0
        assert probe["expectation_table_bytes"] > 0
        assert 0.0 < probe["eta_mean"] <= 1.0
        summary = sink.records[-1]
        assert summary["expectation_table_entries"] > 0

    def test_hub_counters_after_run(self, web_graph):
        hub = Instrumentation(probe_every=500)
        make_partitioner("ldg", 8).partition(GraphStream(web_graph),
                                             instrumentation=hub)
        assert hub.counters["stream.placements"] == web_graph.num_vertices
        assert hub.counters["stream.windows"] == \
            web_graph.num_vertices // 500
        assert 0.0 <= hub.gauges["stream.ecr_estimate"] <= 1.0


class TestByteIdentity:
    @pytest.mark.parametrize("method", ["spnl", "spn", "ldg", "fennel",
                                        "hash"])
    def test_instrumented_assignment_identical(self, web_graph, method):
        """Tracing must never change a single placement decision."""
        plain = make_partitioner(method, 8, ignore_unknown=True).partition(
            GraphStream(web_graph))
        hub = Instrumentation([MemorySink()], probe_every=100)
        traced = make_partitioner(method, 8, ignore_unknown=True).partition(
            GraphStream(web_graph), instrumentation=hub)
        np.testing.assert_array_equal(plain.assignment.route,
                                      traced.assignment.route)

    def test_normalized_stats_keys(self, web_graph):
        for method in ("spnl", "spn", "ldg", "fennel", "hash"):
            result = make_partitioner(
                method, 8, ignore_unknown=True).partition(
                GraphStream(web_graph))
            for key in ("placements", "capacity_overflows",
                        "expectation_table_entries"):
                assert key in result.stats, (method, key)
            assert result.stats["placements"] == web_graph.num_vertices


#: Trace fields that must not depend on which kernel scored the run.
_PROBE_FIELDS = ("placements", "resolved_edges", "cut_edges",
                 "ecr_estimate", "score_margin_min", "score_margin_mean",
                 "loads", "edge_loads")


def _stream_records(sink):
    return [{k: r[k] for k in _PROBE_FIELDS if k in r}
            for r in sink.records
            if r["type"] in ("stream_probe", "stream_summary")]


class TestInstrumentedPathIsTheProductionPath:
    """The probe is fed by the kernel step itself, so tracing neither
    raises under ``fast=True`` nor moves the run to other code."""

    @pytest.mark.parametrize("method,kwargs", [
        ("spnl", {}), ("spn", {"num_shards": 4}), ("ldg", {"slack": 1.0}),
        ("fennel", {}), ("hash", {})])
    def test_fused_and_reference_traces_agree(self, web_graph, method,
                                              kwargs):
        plain = make_partitioner(method, 8, **kwargs).partition(
            GraphStream(web_graph))
        traces = {}
        for fast in (True, False):
            sink = MemorySink()
            hub = Instrumentation([sink], probe_every=250)
            result = make_partitioner(method, 8, **kwargs).partition(
                GraphStream(web_graph), fast=fast, instrumentation=hub)
            assert result.fast_path is True
            np.testing.assert_array_equal(result.assignment.route,
                                          plain.assignment.route)
            traces[fast] = _stream_records(sink)
        assert len(traces[True]) == web_graph.num_vertices // 250 + 1
        assert traces[True] == traces[False]
        margins = [r["score_margin_mean"] for r in traces[True][:-1]]
        assert any(m is not None and m > 0.0 for m in margins)

    def test_checkpointed_run_traces_the_same_windows(self, web_graph,
                                                      tmp_path):
        from repro.recovery import partition_with_checkpoints
        traces = []
        for checkpointed in (False, True):
            sink = MemorySink()
            hub = Instrumentation([sink], probe_every=250)
            partitioner = make_partitioner("spnl", 8)
            if checkpointed:
                result = partition_with_checkpoints(
                    partitioner, GraphStream(web_graph), tmp_path / "ckpt",
                    every=900, instrumentation=hub)
                assert result.stats["checkpoints_written"] == 4
            else:
                result = partitioner.partition(GraphStream(web_graph),
                                               instrumentation=hub)
            assert result.fast_path is True
            traces.append((_stream_records(sink),
                           result.assignment.route))
        assert traces[0][0] == traces[1][0]
        np.testing.assert_array_equal(traces[0][1], traces[1][1])


class TestParallelAndBSPTraces:
    def test_simulated_parallel_emits_batches(self, web_graph):
        from repro.parallel import SimulatedParallelPartitioner

        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=300)
        par = SimulatedParallelPartitioner(make_partitioner("spnl", 8),
                                           parallelism=4)
        result = par.partition(GraphStream(web_graph), instrumentation=hub)
        for record in sink.records:
            validate_record(record)
        batches = [r for r in sink.records if r["type"] == "parallel_batch"]
        assert batches
        assert batches[-1]["placements"] == web_graph.num_vertices
        assert result.stats["placements"] == web_graph.num_vertices

    def test_process_parallel_traces(self, web_graph, shm_leak_check):
        from repro.parallel import (
            ProcessShardedPartitioner,
            SimulatedParallelPartitioner,
        )

        sink = MemorySink()
        hub = Instrumentation([sink], probe_every=300)
        par = ProcessShardedPartitioner(
            make_partitioner("spnl", 8, num_shards=1), parallelism=4,
            num_workers=2)
        result = par.partition(GraphStream(web_graph), instrumentation=hub)
        for record in sink.records:
            validate_record(record)
        groups = [r for r in sink.records if r["type"] == "parallel_group"]
        assert groups and groups[-1]["workers"] == 2
        assert sink.records[-1]["type"] == "stream_summary"
        assert sink.records[-1]["placements"] == web_graph.num_vertices
        # Tracing changes no placement: same route as the untraced model.
        reference = SimulatedParallelPartitioner(
            make_partitioner("spnl", 8, num_shards=1),
            parallelism=4).partition(GraphStream(web_graph))
        assert result.assignment == reference.assignment

    def test_bsp_supersteps_traced(self, web_graph):
        from repro.runtime import BSPEngine
        from repro.runtime.algorithms import PageRankProgram

        assignment = make_partitioner("hash", 4).partition(
            GraphStream(web_graph)).assignment
        sink = MemorySink()
        hub = Instrumentation([sink])
        run = BSPEngine(web_graph, assignment).run(
            PageRankProgram(iterations=3), instrumentation=hub)
        steps = [r for r in sink.records if r["type"] == "bsp_superstep"]
        for record in steps:
            validate_record(record)
        assert len(steps) == run.supersteps
        assert hub.counters["bsp.supersteps"] == run.supersteps
        assert hub.counters["bsp.remote_messages"] == \
            run.comm.remote_messages
