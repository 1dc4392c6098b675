"""Served placements against a reference replay of the acked WAL.

The engine places every record through the placement kernel's step.
The model knows nothing of the kernel: it replays the log with the
reference hooks (``_score`` -> ``choose`` -> ``PartitionState.commit``
-> ``_after_commit``), one line at a time.  For random request mixes —
batches and singles, explicit neighbor rows, duplicates inside one
request, out-of-order ids — the replay must re-make every logged choice
and end on the served route.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PartitionConfig
from repro.graph import AdjacencyRecord, community_web_graph
from repro.graph.stream import ArrayStream
from repro.service import PlacementService, ServiceClient
from repro.service.wal import replay_entries

from .test_server import UnprunedLog

N = 48
GRAPH = community_web_graph(N, avg_degree=4, seed=3)
CONFIG = PartitionConfig(method="spnl", num_partitions=3)

_vertex = st.integers(0, N - 1)
_item = st.one_of(
    _vertex,
    st.fixed_dictionaries({"vertex": _vertex,
                           "neighbors": st.lists(_vertex, max_size=6)}))
#: One request: a single ``place`` (a 1-list here) or a ``place_batch``.
_requests = st.lists(st.lists(_item, min_size=1, max_size=12),
                     min_size=1, max_size=10)


def _reference_replay(entries):
    """Route after replaying ``entries`` with the reference hooks,
    checking every logged pid on the way."""
    partitioner = CONFIG.make()
    stream = ArrayStream.from_graph(GRAPH)
    state = partitioner.make_state(stream)
    partitioner._setup(stream, state)
    for entry in entries:
        record = AdjacencyRecord(
            entry.vertex,
            GRAPH.out_neighbors(entry.vertex) if entry.neighbors is None
            else np.asarray(entry.neighbors, dtype=np.int64))
        pid = partitioner.choose(partitioner._score(record, state), state)
        assert pid == entry.pid, entry
        state.commit(record, pid)
        partitioner._after_commit(record, pid, state)
    return state.route


# A snapshot due after every placing group makes each durable place
# group commit inside the state lock; the log keeps every segment, so
# the whole WAL is replayed.
@pytest.mark.parametrize("snapshot_every", [100_000, 1],
                         ids=["pipelined", "in-lock"])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(requests=_requests)
def test_served_route_is_the_reference_replay_of_the_wal(requests,
                                                         snapshot_every):
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "state"
        acked = {}
        with PlacementService.start(
                GRAPH, config=CONFIG, snapshot_dir=state_dir,
                wal_fsync=False, snapshot_every=snapshot_every,
                wal_factory=UnprunedLog) as svc:
            with ServiceClient(*svc.address) as client:
                for items in requests:
                    if len(items) == 1 and isinstance(items[0], int):
                        results = [client.place(items[0])]
                    else:
                        results = client.place_batch(items)
                    for item, result in zip(items, results):
                        vertex = item if isinstance(item, int) \
                            else item["vertex"]
                        assert result["vertex"] == vertex
                        # First answer places, every later one is cached.
                        assert result["cached"] is (vertex in acked)
                        assert acked.setdefault(vertex, result["pid"]) \
                            == result["pid"]
                stats = client.stats()
            route = svc._state.route.copy()
            entries = list(replay_entries(state_dir))
        assert stats["position"] == len(acked) == len(entries)
        assert stats["fast_path"]["fused_placements"] == len(acked)
        assert {e.vertex: e.pid for e in entries} == acked
        assert np.array_equal(route, _reference_replay(entries))
