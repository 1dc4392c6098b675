"""Smoke test for ``benchmarks/parallel_bound.py``.

The bound times a group loop rebuilt over CSR arrays instead of the
executor itself, so its numbers mean something only while that loop
places exactly as :class:`SimulatedParallelPartitioner` does.  The full
script checks this at |V| = 20k; here the same check runs on a tiny
graph, with the RCT on and off.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph import GraphStream, community_web_graph
from repro.parallel import SimulatedParallelPartitioner

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / \
    "parallel_bound.py"


@pytest.fixture(scope="module")
def bound():
    spec = importlib.util.spec_from_file_location("parallel_bound", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(300, seed=7)


@pytest.mark.parametrize("use_rct", [True, False], ids=["rct", "no-rct"])
@pytest.mark.parametrize("m", [1, 2, 8])
def test_group_loop_places_like_the_simulated_executor(bound, graph, m,
                                                       use_rct):
    _, _, route = bound.group_loop(graph, m, use_rct)
    expected = SimulatedParallelPartitioner(
        bound.spnl(), parallelism=m, use_rct=use_rct).partition(
            GraphStream(graph)).assignment.route
    assert np.array_equal(route, expected)
