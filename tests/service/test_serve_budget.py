"""A call budget for served operations.

The server's twin of ``tests/partitioning/test_kernel_budget.py``: the
cProfile ``total_calls`` of a request, from its line through
``PlacementService._handle_line`` to ``encode_message`` of the answer,
in process (no socket), with a WAL and no fsync.  For one thread on a
deterministic graph the count repeats exactly, so it is held to a
ceiling in tier-1.  Each ceiling is the first whole call above what
the run measures today, so one more call per request fails; the
comments give the measured count and the count before the engine queue
and the completion signal became a deque and a lock latch.  When
thread-coordination machinery or a closure creeps back onto the request
path, the failure prints the per-function histogram so the regression
names itself.
"""

from __future__ import annotations

import cProfile
import io
import pstats

import pytest

from repro import PartitionConfig, community_web_graph
from repro.service.protocol import PROTOCOL_VERSION, encode_message
from repro.service.server import PlacementService

NUM_VERTICES, K, BATCH = 2000, 32, 64
#: Requests profiled per op; the first ``WARM`` placements are not.
WARM, PLACES, BATCHES, LOOKUPS = 100, 500, 8, 500

#: ``op: calls ceiling`` — per request for ``place`` and ``lookup``,
#: per record for a ``place_batch`` of ``BATCH``.
BUDGETS = {
    "place": 113,        # 112.07; 178.53 with threading.Event + Queue
    "place_batch": 25,   # 24.53; 35.18
    "lookup": 33,        # 32.00; 35.00
}


def _line(op: str, number: int, **fields) -> bytes:
    return encode_message({"protocol": PROTOCOL_VERSION, "id": number,
                           "op": op, **fields})


def _requests() -> dict[str, tuple[list[bytes], int]]:
    """Each op's request lines, in the order they run, and how many
    units (requests or records) the budget divides by."""
    first_batch = WARM + PLACES
    batches = range(first_batch, first_batch + BATCHES * BATCH, BATCH)
    return {
        "place": ([_line("place", v, vertex=v)
                   for v in range(WARM, WARM + PLACES)], PLACES),
        "place_batch": ([_line("place_batch", lo,
                               items=list(range(lo, lo + BATCH)))
                         for lo in batches], BATCHES * BATCH),
        "lookup": ([_line("lookup", v, vertex=v)
                    for v in range(LOOKUPS)], LOOKUPS),
    }


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    """One service, warmed, then each op's requests under a profiler;
    ``op: (stats, units, responses)``."""
    service = PlacementService(
        community_web_graph(NUM_VERTICES, seed=7),
        config=PartitionConfig(method="spnl", num_partitions=K),
        snapshot_dir=tmp_path_factory.mktemp("state"), wal_fsync=False)
    out = {}
    try:
        for vertex in range(WARM):
            service._handle_line(_line("place", vertex, vertex=vertex))
        for op, (lines, units) in _requests().items():
            responses = [None] * len(lines)  # filled without a call
            profile = cProfile.Profile()
            profile.enable()
            try:
                for index, line in enumerate(lines):
                    _op, responses[index] = service._handle_line(line)
                    encode_message(responses[index])
            finally:
                profile.disable()
            out[op] = (pstats.Stats(profile, stream=io.StringIO()), units,
                       responses)
    finally:
        service.close()
    return out


@pytest.mark.parametrize("op", list(BUDGETS))
def test_calls_per_request_stay_in_budget(profiles, op):
    stats, units, responses = profiles[op]
    assert all(response["ok"] for response in responses)
    if op != "lookup":
        # Fresh placements: the kernel ran for every record counted.
        results = [r for response in responses
                   for r in response.get("results", [response])]
        assert len(results) == units
        assert not any(r["cached"] for r in results)
    per_unit = stats.total_calls / units
    ceiling = BUDGETS[op]
    if per_unit > ceiling:
        stats.sort_stats("ncalls").print_stats(40)
        pytest.fail(
            f"{op}: {per_unit:.2f} calls per unit, budget {ceiling}\n"
            f"{stats.stream.getvalue()}")
