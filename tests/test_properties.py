"""Property-based tests (hypothesis) on core invariants.

These pin the contracts every component must honor for *arbitrary*
graphs, not just the fixtures: complete/disjoint assignments, capacity
bounds, metric ranges, store equivalences, and the LDG-degradation
identity of Eq. 5.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, GraphStream, from_edges
from repro.partitioning import (
    FennelPartitioner,
    FullExpectationStore,
    HashPartitioner,
    LDGPartitioner,
    PartitionAssignment,
    SPNLPartitioner,
    SPNPartitioner,
    SlidingWindowStore,
    edge_cut,
    evaluate,
)

_SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_vertices=60, max_edges=240):
    """Arbitrary small directed graphs with consecutive ids."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    return from_edges(zip(src[keep].tolist(), dst[keep].tolist()),
                      num_vertices=n, name=f"hyp{seed % 1000}")


@st.composite
def graph_and_k(draw):
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=8))
    return graph, k


_PARTITIONER_FACTORIES = [
    lambda k: HashPartitioner(k),
    lambda k: LDGPartitioner(k),
    lambda k: FennelPartitioner(k),
    lambda k: SPNPartitioner(k),
    lambda k: SPNLPartitioner(k),
    lambda k: SPNLPartitioner(k, num_shards="auto"),
]


class TestPartitionerInvariants:
    @_SETTINGS
    @given(data=graph_and_k(),
           factory_idx=st.integers(0, len(_PARTITIONER_FACTORIES) - 1))
    def test_complete_disjoint_assignment(self, data, factory_idx):
        """Sec. II definition: every partitioner yields a total, disjoint
        cover of V for any graph and any K."""
        graph, k = data
        partitioner = _PARTITIONER_FACTORIES[factory_idx](k)
        result = partitioner.partition(GraphStream(graph))
        result.assignment.validate(graph.num_vertices)
        assert result.assignment.num_partitions == k
        assert result.assignment.vertex_counts().sum() == \
            graph.num_vertices

    @_SETTINGS
    @given(data=graph_and_k())
    def test_capacity_bound_holds(self, data):
        """No partition exceeds C = ceil(δ·|V|/K) under vertex balance."""
        graph, k = data
        result = LDGPartitioner(k, slack=1.2).partition(GraphStream(graph))
        cap = int(np.ceil(1.2 * graph.num_vertices / k))
        assert result.assignment.vertex_counts().max() <= cap

    @_SETTINGS
    @given(data=graph_and_k())
    def test_spn_lambda_one_is_ldg(self, data):
        """Eq. 5 with λ=1 degrades to Eq. 3 exactly, placement by
        placement (the paper's own consistency claim)."""
        graph, k = data
        spn = SPNPartitioner(k, lam=1.0).partition(GraphStream(graph))
        ldg = LDGPartitioner(k).partition(GraphStream(graph))
        assert spn.assignment == ldg.assignment

    @_SETTINGS
    @given(data=graph_and_k())
    def test_determinism(self, data):
        graph, k = data
        a = SPNLPartitioner(k).partition(GraphStream(graph)).assignment
        b = SPNLPartitioner(k).partition(GraphStream(graph)).assignment
        assert a == b


class TestMetricInvariants:
    @_SETTINGS
    @given(data=graph_and_k())
    def test_metric_ranges(self, data):
        graph, k = data
        assignment = HashPartitioner(k).partition(
            GraphStream(graph)).assignment
        q = evaluate(graph, assignment)
        assert 0.0 <= q.ecr <= 1.0
        assert q.delta_v >= 1.0 - 1e-9 or graph.num_vertices % k != 0
        assert q.num_cut_edges <= graph.num_edges
        assert q.vertex_counts.sum() == graph.num_vertices
        assert q.edge_counts.sum() == graph.num_edges

    @_SETTINGS
    @given(graph=graphs())
    def test_single_partition_never_cuts(self, graph):
        assignment = PartitionAssignment(
            np.zeros(graph.num_vertices, dtype=np.int32), 1)
        assert edge_cut(graph, assignment) == 0

    @_SETTINGS
    @given(data=graph_and_k())
    def test_cut_matrix_consistency(self, data):
        from repro.partitioning import cut_matrix
        graph, k = data
        assignment = HashPartitioner(k).partition(
            GraphStream(graph)).assignment
        m = cut_matrix(graph, assignment)
        assert m.sum() == graph.num_edges
        assert m.sum() - np.trace(m) == edge_cut(graph, assignment)


class TestStoreEquivalence:
    @_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1),
           shards=st.integers(1, 8))
    def test_windowed_counts_never_exceed_full(self, seed, shards):
        rng = np.random.default_rng(seed)
        n, k = 80, 3
        full = FullExpectationStore(k, n)
        windowed = SlidingWindowStore(k, n, num_shards=shards)
        for v in range(0, n, 2):
            full.advance_to(v)
            windowed.advance_to(v)
            neighbors = rng.integers(0, n, size=3)
            assert (windowed.gather(neighbors)
                    <= full.gather(neighbors)).all()
            pid = int(rng.integers(0, k))
            full.record(pid, neighbors)
            windowed.record(pid, neighbors)

    @_SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_window_equals_full_for_live_ids(self, seed):
        """With X=1 the window spans all ids ≥ the stream position, so
        every *placeable* vertex sees identical counts."""
        rng = np.random.default_rng(seed)
        n, k = 60, 2
        full = FullExpectationStore(k, n)
        windowed = SlidingWindowStore(k, n, num_shards=1)
        for v in range(n):
            full.advance_to(v)
            windowed.advance_to(v)
            assert np.array_equal(full.expectation_of(v),
                                  windowed.expectation_of(v))
            neighbors = rng.integers(v, n, size=2)
            pid = int(rng.integers(0, k))
            full.record(pid, neighbors)
            windowed.record(pid, neighbors)


class TestBuilderRoundtrip:
    @_SETTINGS
    @given(graph=graphs())
    def test_adjacency_file_roundtrip(self, graph, tmp_path_factory):
        from repro.graph import read_adjacency, write_adjacency
        path = tmp_path_factory.mktemp("io") / "g.adj"
        write_adjacency(graph, path)
        assert read_adjacency(path) == graph

    @_SETTINGS
    @given(graph=graphs())
    def test_relabel_preserves_cut_under_mapped_assignment(self, graph):
        """Relabeling a graph and mapping the assignment the same way
        leaves every metric unchanged — metrics depend on structure,
        not on ids."""
        k = 3
        assignment = HashPartitioner(k).partition(
            GraphStream(graph)).assignment
        rng = np.random.default_rng(7)
        perm = rng.permutation(graph.num_vertices)
        relabeled = graph.relabeled(perm)
        mapped_route = np.empty(graph.num_vertices, dtype=np.int32)
        mapped_route[perm] = assignment.route
        mapped = PartitionAssignment(mapped_route, k)
        assert edge_cut(graph, assignment) == edge_cut(relabeled, mapped)
