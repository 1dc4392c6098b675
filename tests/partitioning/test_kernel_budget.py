"""A call budget for the placement step.

``partitioning.kernel_calls_per_record`` of the end-to-end benchmark is
cProfile's ``total_calls`` of one pass divided by its records; for this
single-threaded, deterministic code it repeats exactly, so it can be
held to a ceiling in tier-1.  Each ceiling is one call above what the
pass measures today (the measured count is in the comment), and
reaching it fails: a closure that creeps back into the per-record path
fails here, and the failure prints the per-function histogram so the
regression names itself.

The stream iteration that feeds the file-backed pass has its own
budget: draining a :class:`~repro.graph.stream.FileStream`, counted the
same way.

Cyclic garbage collection is off inside the profiled window, so a
collection's ``gc.callbacks`` never count as the pass's calls.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats

import pytest

from repro import PartitionConfig, community_web_graph
from repro.graph.io import write_adjacency
from repro.graph.stream import FileStream, GraphStream

NUM_VERTICES = 2000

#: ``id: (config, calls-per-record ceiling)``; measured counts alongside.
BUDGETS = {
    "spnl-dense": (dict(method="spnl"), 18.80),                  # 17.80
    "spnl-window8": (dict(method="spnl", num_shards=8), 21.02),  # 20.02
    "spn": (dict(method="spn"), 21.13),                          # 20.13
    "fennel": (dict(method="fennel"), 11.89),                    # 10.88
    "ldg": (dict(method="ldg"), 13.83),                          # 12.82
}

#: Draining a ``FileStream``: the generator's resumption and the record's
#: ``tuple.__new__`` per record, plus the per-segment tokenizer calls.
STREAM_BUDGET = 3.10                                             # 2.10


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(NUM_VERTICES, seed=7)


def _check_calls(name, run, ceiling):
    profile = cProfile.Profile()
    collecting = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
        if collecting:
            gc.enable()
    stats = pstats.Stats(profile, stream=io.StringIO())
    per_record = stats.total_calls / NUM_VERTICES
    if per_record >= ceiling:
        stats.sort_stats("ncalls").print_stats(30)
        pytest.fail(
            f"{name}: {per_record:.2f} calls per record, budget "
            f"{ceiling}\n{stats.stream.getvalue()}")


@pytest.mark.parametrize("name", list(BUDGETS))
def test_calls_per_record_stay_in_budget(graph, name):
    config, ceiling = BUDGETS[name]
    partitioner = PartitionConfig(num_partitions=32, **config).make()
    _check_calls(name, lambda: partitioner.partition(GraphStream(graph)),
                 ceiling)


def test_stream_iteration_per_record_stays_in_budget(graph, tmp_path):
    path = tmp_path / "g.adj"
    write_adjacency(graph, path)
    stream = FileStream(path)

    def drain():
        for _ in stream:
            pass

    _check_calls("stream iteration", drain, STREAM_BUDGET)
