"""Differential: ``GraphBuilder.build`` against the ``lexsort`` formulation.

``build`` sorts one composite ``src * n + dst`` key and decodes it, or,
when every append was an ``add_rows`` piece and the row vertices rise
strictly across them, stitches the pieces (each row already sorted and
deduplicated with a piece-local key) into the CSR as they stand.  The
two-key ``lexsort`` of all pairs is kept here as the reference, with
the builder's append rules (self-loop filtering, id-space tracking, the
``int64`` key guard) re-stated in plain Python, and hypothesis drives
both with the same mix of ``add_edge``, ``add_edge_arrays``,
``add_adjacency`` and ``add_rows`` calls in arbitrary arrival order.
``indptr`` and ``indices`` must be byte-equal and a build that fails
must fail the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder
from repro.graph.builder import _MAX_KEY_VERTICES, _sorted_edges, _sorted_rows


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
        elif kind == "rows":
            pairs = [(v, u) for v, row in zip(a, b) for u in row]
            max_id = max([max_id, *a])
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
    if n > _MAX_KEY_VERTICES:
        raise ValueError(f"num_vertices={n} exceeds {_MAX_KEY_VERTICES}, "
                         "the largest id space whose edge keys fit int64")
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
        elif kind == "rows":
            builder.add_rows(np.asarray(a, dtype=np.int64),
                             np.asarray([len(row) for row in b],
                                        dtype=np.int64),
                             np.asarray([u for row in b for u in row],
                                        dtype=np.int64))
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


def _assert_builds_agree(*args):
    want, got = _outcome(_reference_csr, *args), _outcome(_build, *args)
    assert got[:1] == want[:1]
    if want[0] == "raised":
        assert got == want
        return
    for mine, theirs in zip(got[1:], want[1:]):
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.tobytes() == theirs.tobytes()


# Few distinct ids, so duplicates and self-loops are the common case.
_vertex = st.integers(0, 12)
_pairs = st.lists(st.tuples(_vertex, _vertex), max_size=12)
_row = st.tuples(_vertex, st.lists(_vertex, max_size=6))


def _rows_op(rows):
    return ("rows", [v for v, _ in rows], [list(nbrs) for _, nbrs in rows])


_op = st.one_of(
    st.tuples(st.just("edge"), _vertex, _vertex),
    _pairs.map(lambda ps: ("arrays", [s for s, _ in ps],
                           [d for _, d in ps])),
    st.tuples(st.just("adjacency"), _vertex,
              st.lists(_vertex, max_size=6)),
    st.lists(_row, max_size=5).map(_rows_op),
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
    _assert_builds_agree(ops, fixed_n, dedupe, allow_self_loops)


# Ids far past the widest id space: a build that keeps one must be
# refused with the guard's error.  Were the guard skipped, ``indptr``
# could not even be allocated, so a regression fails here at once.
_HUGE_IDS = (2 ** 62, 999_999_999_999_999_999)


def _order_rows(rows, order):
    """``rows`` in the given arrival order of their vertices, and the
    cuts that order forces."""
    ascending = sorted({v: nbrs for v, nbrs in rows}.items())
    if order == "ascending":  # strictly: the stitch path
        return ascending, []
    if order == "split":
        # Ascending but for one vertex whose row is split across two
        # pieces: the pieces rise, the vertices do not strictly.
        mid = len(ascending) // 2
        if ascending:
            v, nbrs = ascending[mid]
            ascending[mid:mid + 1] = [(v, nbrs[:2]), (v, nbrs[2:])]
        return ascending, [mid + 1]
    if order == "descending":
        return ascending[::-1], []
    if order == "repeated":
        return rows + rows[:2], []
    return rows, []


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(_row, max_size=10),
       order=st.sampled_from(["ascending", "ascending", "split",
                              "descending", "repeated", "drawn"]),
       cuts=st.lists(st.integers(0, 20), max_size=3),
       huge=st.one_of(st.none(), st.none(), st.none(),
                      st.tuples(st.sampled_from(_HUGE_IDS), st.booleans(),
                                st.integers(0, 20))),
       fixed_n=st.one_of(st.none(), st.none(), st.integers(0, 16)),
       dedupe=st.booleans(), allow_self_loops=st.booleans())
def test_row_pieces_match_lexsort(rows, order, cuts, huge, fixed_n, dedupe,
                                  allow_self_loops):
    """Rows only, cut into pieces anywhere: empty rows and pieces,
    self-loops, duplicate targets, a fixed ``num_vertices`` below the
    largest id, ids past the key guard (as a row vertex or a target),
    and rows ascending (stitched), descending, split across pieces or
    repeated (expanded into pairs)."""
    rows, forced = _order_rows(rows, order)
    if huge is not None:
        vertex, as_target, at = huge
        row = (0, [vertex]) if as_target else (vertex, [])
        # After the forced cut, so the cut still splits its row.
        at = len(rows) if forced else min(at, len(rows))
        rows.insert(at, row)
    cuts = [min(c, len(rows)) for c in cuts + forced]
    bounds = [0, *sorted(cuts), len(rows)]
    ops = [_rows_op(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    _assert_builds_agree(ops, fixed_n, dedupe, allow_self_loops)


class TestRowAppends:
    def test_a_row_past_the_key_guard_is_refused(self):
        """The tokenizer's widest fast-path token as a lone row vertex:
        refused with the key guard's error, as the pair path refuses it,
        before an ``indptr`` of 10**18 entries is attempted."""
        vertex = 999_999_999_999_999_999
        want = _outcome(_reference_csr, [("adjacency", vertex, [])],
                        None, True, False)
        assert want[0] == "raised" and "edge keys fit int64" in want[1]
        builder = GraphBuilder().add_rows(np.asarray([vertex]),
                                          np.asarray([0]), np.asarray([]))
        with pytest.raises(ValueError) as info:
            builder.build()
        assert str(info.value) == want[1]

    def test_a_built_graph_keeps_its_rows(self):
        """The stitched graph holds the builder's row buffer; appending
        to the builder afterwards must not grow it under the graph."""
        builder = GraphBuilder()
        builder.add_rows(np.asarray([0, 1]), np.asarray([2, 1]),
                         np.asarray([2, 1, 0]))
        first = builder.build()
        before = first.indices.tobytes()
        assert builder.build() == first
        for v in range(2, 200):  # enough to move the buffer
            builder.add_rows(np.asarray([v]), np.asarray([1]),
                             np.asarray([v - 1]))
        assert first.indices.tobytes() == before
        second = builder.build()
        assert second.num_edges == 3 + 198
        assert second.indices[:3].tobytes() == before

    @pytest.mark.parametrize("vertices, counts, targets, message", [
        ([0, 1], [1], [2], "matching"),
        ([[0]], [[1]], [2], "matching"),
        ([0, 1], [1, -1], [], "non-negative and sum"),
        ([0, 1], [1, 1], [2], "non-negative and sum"),
        ([0, -1], [1, 0], [2], "vertex ids must be non-negative"),
        ([0, 1], [1, 0], [-2], "vertex ids must be non-negative"),
    ])
    def test_malformed_pieces_are_refused(self, vertices, counts, targets,
                                          message):
        with pytest.raises(ValueError, match=message):
            GraphBuilder().add_rows(np.asarray(vertices, dtype=np.int64),
                                    np.asarray(counts, dtype=np.int64),
                                    np.asarray(targets, dtype=np.int64))


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

    @given(rows=st.lists(st.lists(st.integers(0, 40), max_size=6),
                         min_size=1, max_size=12),
           top=st.sampled_from([_MAX_KEY_VERTICES - 1,
                                np.iinfo(np.int64).max]),
           dedupe=st.booleans())
    def test_row_keys_next_to_the_limits_sort_exactly(self, rows, top,
                                                      dedupe):
        """Targets counted down from the guard and from int64's top: the
        widest piece-local keys, and past them the ``lexsort`` branch."""
        counts = np.asarray([len(r) for r in rows], dtype=np.int64)
        local = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        targets = np.asarray([top - u for r in rows for u in r],
                             dtype=np.int64)
        want_src, want_dst = _lexsort_edges(local, targets, dedupe)
        got_counts, got_dst = _sorted_rows(local.copy(), targets,
                                           len(rows), dedupe)
        assert got_dst.tobytes() == want_dst.tobytes()
        assert got_counts.tobytes() == np.bincount(
            want_src, minlength=len(rows)).tobytes()
