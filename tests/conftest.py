"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def shm_leak_guard():
    """Fail if a segment this process created inside leaves /dev/shm.

    Only the segments made through ``SharedArrayBlock.create`` while
    the guard is open are checked: a segment some other process (a
    concurrent test run, another tool) holds in /dev/shm is not ours to
    police.
    """
    from repro.parallel.shared import SharedArrayBlock

    created: list[str] = []
    create = SharedArrayBlock.__dict__["create"]

    def recording(cls, spec):
        block = create.__func__(cls, spec)
        created.append(block.name)
        return block

    SharedArrayBlock.create = classmethod(recording)
    try:
        yield
    finally:
        SharedArrayBlock.create = create
    leaked = sorted(name for name in created
                    if os.path.exists(os.path.join(_SHM_DIR, name)))
    assert not leaked, (
        f"test leaked {len(leaked)} shared-memory segment(s) in "
        f"{_SHM_DIR}: {leaked} — a pool teardown path failed to unlink")


@pytest.fixture
def shm_leak_check():
    """Fail the test that leaves a shared-memory segment in /dev/shm.

    The process-sharded executor's scoring pool allocates POSIX
    shared memory (``psm_*`` segments on Linux).  A
    segment that outlives its test is a real resource leak — on a
    long-lived host the 64 MB tmpfs quota eventually fills and
    *unrelated* allocations start failing — and it is exactly the
    failure mode the teardown paths (pool close, crash teardown,
    SIGKILL supervision) are supposed to prevent.  Naming the leaking
    test beats a mysterious ENOSPC three suites later.
    """
    with shm_leak_guard():
        yield
