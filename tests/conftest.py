"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import (
    DiGraph,
    GraphStream,
    community_web_graph,
    from_edges,
    grid_graph,
    ring_of_cliques,
)


@pytest.fixture
def tiny_graph() -> DiGraph:
    """5 vertices, hand-checkable structure.

    Edges: 0→1, 0→2, 1→2, 2→3, 3→4, 4→0.
    """
    return from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0)],
        num_vertices=5, name="tiny")


@pytest.fixture
def paper_fig1_state():
    """The exact local view of the paper's Figure 1 worked example.

    Vertices 1..6 (1-indexed as in the figure) already placed:
    V1 = {3, 5}, V2 = {1, 2}, V3 = {4, 6}; adjacency lists as drawn.
    Vertex 7 with N_out = {6, 9, 10} is about to arrive.  Ids run to 15
    (the figure's largest referenced id).
    """
    adjacency = {
        3: [4, 5, 11],
        5: [2, 3, 14],
        1: [6, 8, 9],
        2: [4, 7, 8],
        4: [11, 12, 15],
        6: [4, 7, 13],
        7: [6, 9, 10],
    }
    placement = {3: 0, 5: 0, 1: 1, 2: 1, 4: 2, 6: 2}
    return adjacency, placement


@pytest.fixture(scope="session")
def web_graph() -> DiGraph:
    """A mid-size locality-rich web stand-in shared by slow tests."""
    return community_web_graph(4000, avg_community_size=50, seed=42,
                               name="web4k")


@pytest.fixture(scope="session")
def web_stream_factory(web_graph):
    """Factory producing fresh id-ordered streams of the shared graph."""
    def _make():
        return GraphStream(web_graph)
    return _make


@pytest.fixture
def cliques_graph() -> DiGraph:
    """8 cliques of 6 vertices in a ring — known optimal partitioning."""
    return ring_of_cliques(8, 6)


@pytest.fixture
def grid() -> DiGraph:
    return grid_graph(12, 12)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


_SHM_DIR = "/dev/shm"
#: Python's multiprocessing.shared_memory default name prefix plus the
#: bare ``shm_`` some allocators use; anything else in /dev/shm (other
#: tools, the OS) is not ours to police.
_SHM_PREFIXES = ("psm_", "shm_")


def _shm_segments() -> set[str]:
    if not os.path.isdir(_SHM_DIR):  # non-Linux: nothing to check
        return set()
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {n for n in names if n.startswith(_SHM_PREFIXES)}


@pytest.fixture
def shm_leak_check():
    """Fail the test that leaves a shared-memory segment in /dev/shm.

    The process-sharded executor and the service's scoring pool
    allocate POSIX shared memory (``psm_*`` segments on Linux).  A
    segment that outlives its test is a real resource leak — on a
    long-lived host the 64 MB tmpfs quota eventually fills and
    *unrelated* allocations start failing — and it is exactly the
    failure mode the teardown paths (pool close, crash teardown,
    SIGKILL supervision) are supposed to prevent.  Naming the leaking
    test beats a mysterious ENOSPC three suites later.
    """
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, (
        f"test leaked {len(leaked)} shared-memory segment(s) in "
        f"{_SHM_DIR}: {sorted(leaked)} — a pool teardown path failed "
        f"to unlink")
