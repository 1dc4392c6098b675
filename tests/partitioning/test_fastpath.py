"""Byte-identity tests for the heuristics' fused scoring kernels.

A fused ``_fast_kernel`` pair must be a pure performance change: for
**every** registered vertex partitioner, on ordered and shuffled
streams, the route table must be byte-equal to the one the reference
kernel derived from ``_score``/``_after_commit`` produces
(``fast=False`` — same placement loop, reference scoring).  Any
elementwise reassociation, tie-break drift, or capacity-mask divergence
shows up as a route mismatch here.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import GraphStream, shuffled
from repro.graph.generators import community_web_graph
from repro.graph.stream import ArrayStream, FileStream, as_array_stream
from repro.partitioning.registry import (
    available_partitioners,
    make_partitioner,
)

from .test_kernel_groups import GAMMA  # dense, window X=3

ALL_VERTEX = available_partitioners(kind="vertex")


@pytest.fixture(scope="module")
def ident_graph():
    return community_web_graph(1500, seed=9)


def _both_paths(name, stream_factory, k=8, **kwargs):
    fast = make_partitioner(name, k, **kwargs).partition(stream_factory())
    slow = make_partitioner(name, k, **kwargs).partition(
        stream_factory(), fast=False)
    return fast, slow


class TestRegistryByteIdentity:
    @pytest.mark.parametrize("name", ALL_VERTEX)
    def test_ordered_stream(self, ident_graph, name):
        fast, slow = _both_paths(name, lambda: GraphStream(ident_graph))
        assert np.array_equal(fast.assignment.route, slow.assignment.route)
        # ``fast_path`` says where the records came from (CSR arrays),
        # not which kernel scored them.
        assert slow.stats["fast_path"] is True
        assert fast.stats["fast_path"] is True

    @pytest.mark.parametrize("name", ALL_VERTEX)
    def test_shuffled_stream(self, ident_graph, name):
        fast, slow = _both_paths(name,
                                 lambda: shuffled(ident_graph, seed=5))
        assert np.array_equal(fast.assignment.route, slow.assignment.route)

    @pytest.mark.parametrize("name", ALL_VERTEX)
    def test_array_stream(self, ident_graph, name):
        """Explicit CSR streams are read like GraphStream's arrays."""
        fast, slow = _both_paths(
            name, lambda: ArrayStream.from_graph(ident_graph))
        assert np.array_equal(fast.assignment.route, slow.assignment.route)
        assert fast.stats["fast_path"] is True


#: Config variants that exercise every branch the fused kernels
#: maintain incrementally: the Γ window rotation, tight capacities
#: (overflow valve + ineligibility mask), the edge-balance mode, the
#: η decay schedules, and each in-degree estimator.
VARIANTS = [
    ("spn", {"num_shards": 4}),
    ("spn", {"in_estimator": "self"}),
    ("spn", {"in_estimator": "neighborhood"}),
    ("spnl", {"num_shards": 4}),
    ("spnl", {"eta_schedule": "frozen"}),
    ("spnl", {"eta_schedule": "linear"}),
    ("spnl", {"eta_schedule": 0.4}),
    ("spnl", {"slack": 1.0}),
    ("ldg", {"slack": 1.0}),
    ("fennel", {"slack": 1.0}),
    ("spnl", {"balance": "both"}),
]


class TestVariantByteIdentity:
    @pytest.mark.parametrize("name,kwargs", VARIANTS,
                             ids=[f"{n}-{kw}" for n, kw in VARIANTS])
    def test_variant_identity(self, ident_graph, name, kwargs):
        fast, slow = _both_paths(name, lambda: GraphStream(ident_graph),
                                 **kwargs)
        assert fast.stats["fast_path"] is True
        assert np.array_equal(fast.assignment.route, slow.assignment.route)
        # The tight-slack variants exist to hit the overflow valve; the
        # two paths must agree on how often it fired, not just where
        # vertices landed.
        assert fast.stats.get("capacity_overflows") == \
            slow.stats.get("capacity_overflows")


@st.composite
def _multigraph_runs(draw):
    """A small multigraph as raw CSR arrays (duplicate neighbours,
    self-loops and zero-degree rows all occur) and a configuration."""
    n = draw(st.integers(1, 60))
    ids = st.integers(0, n - 1)
    row = st.one_of(st.just([]), st.lists(ids, max_size=4),
                    st.lists(ids, max_size=12))
    rows = [draw(row) for _ in range(n)]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    indices = np.asarray([u for r in rows for u in r], dtype=np.int64)
    method = draw(st.sampled_from(["spnl", "spnl", "spn"]))
    kwargs = {"balance": draw(st.sampled_from(["vertex", "edge", "both"])),
              "slack": draw(st.sampled_from([1.0, 1.1, 2.0]))}
    if method == "spnl":
        kwargs["eta_schedule"] = draw(
            st.sampled_from(["paper", "frozen", "linear", 0.4]))
    return indptr, indices, draw(st.integers(1, 5)), method, kwargs


class TestFusedEqualsReferenceOverTheSpace:
    """The variants above vary one option at a time on one simple graph;
    this draws the graph and the rest of the configuration."""

    @pytest.mark.parametrize("gamma", list(GAMMA))
    @pytest.mark.parametrize("in_estimator",
                             ["combined", "neighborhood", "self"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=_multigraph_runs())
    def test_route_and_overflows_agree(self, gamma, in_estimator, run):
        indptr, indices, k, method, kwargs = run
        fast, slow = _both_paths(
            method, lambda: ArrayStream(indptr, indices), k=k,
            in_estimator=in_estimator, **GAMMA[gamma], **kwargs)
        assert np.array_equal(fast.assignment.route, slow.assignment.route)
        assert fast.stats["capacity_overflows"] == \
            slow.stats["capacity_overflows"]


class TestDegreeGrowth:
    """Nothing in the kernel is sized by a degree announced up front: a
    ``FileStream`` announces none, so the longest row may come last."""

    @pytest.mark.parametrize("name,kwargs", [
        ("spnl", {}), ("spnl", {"num_shards": 4}), ("spn", {}),
        ("ldg", {}), ("fennel", {})])
    def test_largest_row_last_matches_reference_place(
            self, tmp_path, name, kwargs):
        n = 400
        rng = np.random.default_rng(11)
        path = tmp_path / "growing.adj"
        with open(path, "w") as fh:
            for v in range(n):
                # degrees grow 1, 1, 2, 2, ... and the last row is by
                # far the longest the kernel has seen
                degree = n - 1 if v == n - 1 else 1 + v // 2 % 40
                row = rng.choice(n, size=degree, replace=False)
                fh.write(" ".join(map(str, [v, *sorted(row)])) + "\n")
        result = make_partitioner(name, 8, **kwargs).partition(
            FileStream(path))
        assert result.stats["fast_path"] is False

        reference = make_partitioner(name, 8, **kwargs)
        stream = FileStream(path)
        state = reference.make_state(stream)
        reference._setup(stream, state)
        for record in stream:
            reference.place(record, state)
        assert np.array_equal(result.assignment.route, state.route)


class TestFastDispatch:
    @pytest.mark.parametrize("name", ["spnl", "hash"])
    def test_iterated_stream_is_scored_by_the_same_kernel(
            self, ident_graph, name):
        """A source without CSR arrays is iterated, not refused: the
        kernel scores it all the same, ``fast`` only picks the scorer."""
        csr = make_partitioner(name, 8).partition(GraphStream(ident_graph))
        for fast in (None, True, False):
            result = make_partitioner(name, 8).partition(
                _GeneratorStream(ident_graph), fast=fast)
            assert result.stats["fast_path"] is False
            assert np.array_equal(result.assignment.route,
                                  csr.assignment.route)

    def test_subclassed_stream_falls_back(self, ident_graph):
        """A GraphStream subclass overriding __iter__ must NOT be
        hijacked by the CSR conversion — its custom iteration is the
        whole point of subclassing."""

        class _Truncating(GraphStream):
            def __iter__(self):
                for i, record in enumerate(super().__iter__()):
                    if i >= 10:
                        return
                    yield record

        assert as_array_stream(_Truncating(ident_graph)) is None
        result = make_partitioner("ldg", 4).partition(
            _Truncating(ident_graph))
        assert result.stats["fast_path"] is False

    def test_as_array_stream_exact_types(self, ident_graph):
        gs = GraphStream(ident_graph)
        arr = as_array_stream(gs)
        assert type(arr) is ArrayStream
        assert as_array_stream(arr) is arr
        assert as_array_stream(object()) is None


class _GeneratorStream:
    """Minimal VertexStream with no materialized arrays."""

    def __init__(self, graph):
        self._graph = graph

    @property
    def num_vertices(self):
        return self._graph.num_vertices

    @property
    def num_edges(self):
        return self._graph.num_edges

    @property
    def is_id_ordered(self):
        return True

    def __iter__(self):
        yield from self._graph.records()
