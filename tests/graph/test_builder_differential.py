"""Differential: ``GraphBuilder.build`` against the ``lexsort`` formulation.

``build`` sorts one composite ``src * n + dst`` key and decodes it.  The
two-key ``lexsort`` it replaced is kept here, with the builder's append
rules (self-loop filtering, id-space tracking) re-stated in plain
Python, and hypothesis drives both with the same mix of ``add_edge``,
``add_edge_arrays`` and ``add_adjacency`` calls in arbitrary arrival
order.  ``indptr`` and ``indices`` must be byte-equal and a build that
fails must fail the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder
from repro.graph.builder import _MAX_KEY_VERTICES, _sorted_edges


def _lexsort_edges(src, dst, dedupe):
    """What ``build`` did before the composite key."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src):
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if dedupe:
            keep = np.empty(len(src), dtype=bool)
            keep[0] = True
            np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1],
                          out=keep[1:])
            src, dst = src[keep], dst[keep]
    return src, dst


def _reference_csr(ops, fixed_n, dedupe, allow_self_loops):
    src, dst, max_id = [], [], -1
    for kind, a, b in ops:
        if kind == "adjacency":
            pairs, max_id = [(a, u) for u in b], max(max_id, a)
        elif kind == "arrays":
            pairs = list(zip(a, b))
        else:
            pairs = [(a, b)]
        for s, d in pairs:
            if s == d and not allow_self_loops:
                continue  # and does not extend the id space
            src.append(s)
            dst.append(d)
            max_id = max(max_id, s, d)
    n = fixed_n if fixed_n is not None else max_id + 1
    if max_id >= n:
        raise ValueError(
            f"edge references vertex {max_id} but num_vertices={n}")
    src, dst = _lexsort_edges(src, dst, dedupe)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if len(src):
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def _build(ops, fixed_n, dedupe, allow_self_loops):
    builder = GraphBuilder(fixed_n, dedupe=dedupe,
                           allow_self_loops=allow_self_loops)
    for kind, a, b in ops:
        if kind == "adjacency":
            builder.add_adjacency(a, b)
        elif kind == "arrays":
            builder.add_edge_arrays(np.asarray(a, dtype=np.int64),
                                    np.asarray(b, dtype=np.int64))
        else:
            builder.add_edge(a, b)
    graph = builder.build()
    return graph.indptr, graph.indices


def _outcome(fn, *args):
    try:
        return ("ok", *fn(*args))
    except ValueError as exc:
        return ("raised", str(exc))


# Few distinct ids, so duplicates and self-loops are the common case.
_vertex = st.integers(0, 12)
_pairs = st.lists(st.tuples(_vertex, _vertex), max_size=12)
_op = st.one_of(
    st.tuples(st.just("edge"), _vertex, _vertex),
    _pairs.map(lambda ps: ("arrays", [s for s, _ in ps],
                           [d for _, d in ps])),
    st.tuples(st.just("adjacency"), _vertex,
              st.lists(_vertex, max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, max_size=8),
       fixed_n=st.one_of(st.none(), st.integers(0, 16)),
       dedupe=st.booleans(), allow_self_loops=st.booleans(),
       arrival=st.sampled_from(["drawn", "reversed", "sorted"]))
def test_build_matches_lexsort(ops, fixed_n, dedupe, allow_self_loops,
                               arrival):
    if arrival == "reversed":
        ops = ops[::-1]
    elif arrival == "sorted":
        ops = sorted(ops, key=repr)
    args = (ops, fixed_n, dedupe, allow_self_loops)
    want, got = _outcome(_reference_csr, *args), _outcome(_build, *args)
    assert got[:1] == want[:1]
    if want[0] == "raised":
        assert got == want
        return
    for mine, theirs in zip(got[1:], want[1:]):
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.tobytes() == theirs.tobytes()


class TestKeyGuard:
    """The key is ``src * n + dst``: it fits ``int64`` up to
    ``n = isqrt(2**63)`` and the build refuses anything wider."""

    def test_guard_is_the_last_width_that_fits(self):
        top = np.iinfo(np.int64).max
        assert _MAX_KEY_VERTICES ** 2 - 1 <= top
        assert (_MAX_KEY_VERTICES + 1) ** 2 - 1 > top

    @given(pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                          min_size=1, max_size=20),
           dedupe=st.booleans())
    def test_ids_next_to_the_guard_sort_exactly(self, pairs, dedupe):
        """The widest id space, ids counted down from its top: the
        largest keys there are.  No array here is O(n)."""
        n = _MAX_KEY_VERTICES
        src = np.asarray([n - 1 - s for s, _ in pairs], dtype=np.int64)
        dst = np.asarray([n - 1 - d for _, d in pairs], dtype=np.int64)
        want = _lexsort_edges(src, dst, dedupe)
        got = _sorted_edges(src.copy(), dst, n, dedupe)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_wider_id_space_is_refused(self):
        builder = GraphBuilder(_MAX_KEY_VERTICES + 1).add_edge(0, 1)
        with pytest.raises(ValueError, match="edge keys fit int64"):
            builder.build()
