"""A call budget for the placement step.

``partitioning.kernel_calls_per_record`` of the end-to-end benchmark is
cProfile's ``total_calls`` of one pass divided by its records; for this
single-threaded, deterministic code it repeats exactly, so it can be
held to a ceiling in tier-1.  Each ceiling is one call above what the
pass measures today (the measured count is in the comment): a closure
that creeps back into the per-record path fails here, and the failure
prints the per-function histogram so the regression names itself.
"""

from __future__ import annotations

import cProfile
import io
import pstats

import pytest

from repro import PartitionConfig, community_web_graph
from repro.graph.stream import GraphStream

NUM_VERTICES = 2000

#: ``id: (config, calls-per-record ceiling)``; measured counts alongside.
BUDGETS = {
    "spnl-dense": (dict(method="spnl"), 22.55),                  # 21.54
    "spnl-window8": (dict(method="spnl", num_shards=8), 30.27),  # 29.26
    "spn": (dict(method="spn"), 23.13),                          # 22.13
    "fennel": (dict(method="fennel"), 12.89),                    # 11.88
    "ldg": (dict(method="ldg"), 14.83),                          # 13.82
}


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(NUM_VERTICES, seed=7)


@pytest.mark.parametrize("name", list(BUDGETS))
def test_calls_per_record_stay_in_budget(graph, name):
    config, ceiling = BUDGETS[name]
    partitioner = PartitionConfig(num_partitions=32, **config).make()
    profile = cProfile.Profile()
    profile.enable()
    try:
        partitioner.partition(GraphStream(graph))
    finally:
        profile.disable()
    stats = pstats.Stats(profile, stream=io.StringIO())
    per_record = stats.total_calls / NUM_VERTICES
    if per_record > ceiling:
        stats.sort_stats("ncalls").print_stats(30)
        pytest.fail(
            f"{name}: {per_record:.2f} calls per record, budget "
            f"{ceiling}\n{stats.stream.getvalue()}")
