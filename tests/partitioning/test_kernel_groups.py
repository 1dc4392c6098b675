"""Differential check of the placement kernel's two halves under groups.

Sec. V-B scores a group of records against the group-start view and
commits them in arrival order.  Every driver does that through
``PlacementKernel.score`` / ``PlacementKernel.commit``; the reference is
the same grouping written with the hooks the kernel is derived from,
``_score`` -> ``choose`` -> ``PartitionState.commit`` -> ``_after_commit``.
Hypothesis draws small graphs (many empty rows, so ties are the rule),
arrival orders and group sizes; for every registered vertex partitioner,
over the dense, hashed and sliding-window Γ stores, vertex and edge
balance, and both overflow policies, the two must leave the same route,
loads, overflow count and heuristic state — and under
``overflow="strict"`` raise at the same record.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import AdjacencyRecord
from repro.partitioning.base import (
    CapacityOverflowError,
    PlacementKernel,
    StreamingPartitioner,
)
from repro.partitioning.registry import (
    available_partitioners,
    make_partitioner,
)

#: Γ-store variants of the two heuristics that keep one; the hashed
#: store gets fewer buckets than vertices so ids collide.
GAMMA = {
    "dense": {},
    "hashed": {"gamma_buckets": 5},
    "window": {"num_shards": 3},
}


def _has_fused_pair(name) -> bool:
    return type(make_partitioner(name, 2))._fast_kernel \
        is not StreamingPartitioner._fast_kernel


#: ``(name, Γ store, reference)``: a heuristic that ships a hand-fused
#: scoring pair also runs on the pair derived from its hooks (what
#: ``partition(fast=False)`` and the buffered hybrid place through),
#: whose ``after_commit`` must not reuse the last *scored* record.
CASES = [(name, gamma, reference)
         for name in available_partitioners(kind="vertex")
         for gamma in (GAMMA if name in ("spn", "spnl") else ["dense"])
         for reference in ((False, True) if _has_fused_pair(name)
                           else (False,))]


class _Shape:
    """What ``make_state``/``_setup`` read off a stream."""

    is_id_ordered = True  # lets the window store be built for any order

    def __init__(self, num_vertices, num_edges) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges


@st.composite
def _workloads(draw):
    n = draw(st.integers(4, 18))
    ids = st.integers(0, n - 1)
    # Two rows in three are empty: equal scores, so the least-loaded
    # tie-break decides most placements.
    row = st.one_of(st.just([]), st.just([]), st.lists(ids, max_size=5))
    rows = [np.asarray(draw(row), dtype=np.int64) for _ in range(n)]
    # Half the time the stream announces a third of the edges it then
    # delivers (a served placement may carry its own, longer row): under
    # edge balance every partition fills up and the overflow valve, or
    # the strict error, is reached mid-stream.
    edges = sum(len(r) for r in rows)
    shape = _Shape(n, draw(st.sampled_from([edges, edges // 3])))
    order = draw(st.permutations(range(n)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=n))
    groups, start = [], 0
    while start < n:
        size = sizes[len(groups) % len(sizes)]
        groups.append(order[start:start + size])
        start += size
    return shape, rows, groups


def _build(name, gamma, shape, k, balance, overflow):
    partitioner = make_partitioner(
        name, k, slack=1.0, balance=balance, overflow=overflow,
        **GAMMA[gamma])
    state = partitioner.make_state(shape)
    partitioner._setup(shape, state)
    return partitioner, state


def _run_kernel(partitioner, state, rows, groups, reference):
    """Place ``groups`` through the kernel's halves; returns how many
    records committed before ``CapacityOverflowError`` (None: all)."""
    kernel = PlacementKernel(partitioner, state, reference=reference)
    placed = 0
    for group in groups:
        scored = [kernel.score(v, rows[v]).copy() for v in group]
        for v, scores in zip(group, scored):
            try:
                kernel.commit(v, rows[v], scores)
            except CapacityOverflowError:
                return placed
            placed += 1
    return None


def _run_reference(partitioner, state, rows, groups):
    placed = 0
    for group in groups:
        records = [AdjacencyRecord(v, rows[v]) for v in group]
        scored = [partitioner._score(record, state) for record in records]
        for record, scores in zip(records, scored):
            try:
                pid = partitioner.choose(scores, state)
            except CapacityOverflowError:
                return placed
            state.commit(record, pid)
            partitioner._after_commit(record, pid, state)
            placed += 1
    return None


def _assert_same(left, right, path="state"):
    if isinstance(left, dict):
        assert sorted(left) == sorted(right), path
        for key in left:
            _assert_same(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, np.ndarray):
        np.testing.assert_array_equal(left, right, err_msg=path)
    else:
        assert left == right, path


@pytest.mark.parametrize("name,gamma,reference", CASES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=_workloads(), k=st.integers(2, 4),
       balance=st.sampled_from(["vertex", "edge"]),
       overflow=st.sampled_from(["least-loaded", "strict"]))
def test_grouped_kernel_halves_match_the_reference_hooks(
        name, gamma, reference, workload, k, balance, overflow):
    shape, rows, groups = workload
    fused, fused_state = _build(name, gamma, shape, k, balance, overflow)
    plain, plain_state = _build(name, gamma, shape, k, balance, overflow)
    stopped_at = _run_kernel(fused, fused_state, rows, groups, reference)
    assert stopped_at == _run_reference(plain, plain_state, rows, groups)
    if overflow != "strict":
        assert stopped_at is None
    # state_dict covers the route, both tallies, the placed counters,
    # capacity_overflows and the heuristic's own state (Γ counters and
    # window cursor, |V^lt|, the chunk counter, the generator state).
    _assert_same(fused.state_dict(fused_state),
                 plain.state_dict(plain_state))
