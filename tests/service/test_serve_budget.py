"""A call budget for served operations.

The server's twin of ``tests/partitioning/test_kernel_budget.py``: the
cProfile ``total_calls`` of a request, from its line through
``PlacementService._handle_line`` to ``encode_message`` of the answer,
in process (no socket), with a WAL and no fsync.  For one thread on a
deterministic graph the count repeats exactly, so it is held to a
ceiling in tier-1.  Each ceiling is the first whole call above what
the run measures today, and reaching it fails, so one more call per
request fails (a planted call per ``lookup`` is tested to); the
comments give the measured count and the count before the engine queue
and the completion signal became a deque and a lock latch.  When
thread-coordination machinery or a closure creeps back onto the request
path, the failure prints the per-function histogram so the regression
names itself.

Cyclic garbage collection is off inside the profiled window: a
collection landing there would count the ``gc.callbacks`` it fires (a
test library registers one) as the requests' calls, so the count would
hold per process but not per suite.
"""

from __future__ import annotations

import cProfile
import gc
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


def _warm_service(state_dir) -> PlacementService:
    service = PlacementService(
        community_web_graph(NUM_VERTICES, seed=7),
        config=PartitionConfig(method="spnl", num_partitions=K),
        snapshot_dir=state_dir, wal_fsync=False)
    for vertex in range(WARM):
        service._handle_line(_line("place", vertex, vertex=vertex))
    return service


def _profile(service, lines) -> tuple[pstats.Stats, list]:
    """``lines`` through the service under a profiler; the stats and
    the responses."""
    responses = [None] * len(lines)  # filled without a call
    profile = cProfile.Profile()
    collecting = gc.isenabled()
    gc.disable()
    profile.enable()
    try:
        for index, line in enumerate(lines):
            _op, responses[index] = service._handle_line(line)
            encode_message(responses[index])
    finally:
        profile.disable()
        if collecting:
            gc.enable()
    return pstats.Stats(profile, stream=io.StringIO()), responses


def _check_budget(op, stats, units) -> None:
    # Less one: the profiler counts its own ``disable()``, which is not
    # the requests'.  Otherwise a planted call per ``lookup`` would
    # read 33.002 and fail for the wrong reason.
    per_unit = (stats.total_calls - 1) / units
    ceiling = BUDGETS[op]
    if per_unit >= ceiling:
        stats.sort_stats("ncalls").print_stats(40)
        pytest.fail(
            f"{op}: {per_unit:.2f} calls per unit, budget {ceiling}\n"
            f"{stats.stream.getvalue()}")


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    """One service, warmed, then each op's requests under a profiler;
    ``op: (stats, responses, units)``."""
    service = _warm_service(tmp_path_factory.mktemp("state"))
    out = {}
    try:
        for op, (lines, units) in _requests().items():
            out[op] = (*_profile(service, lines), units)
    finally:
        service.close()
    return out


@pytest.mark.parametrize("op", list(BUDGETS))
def test_calls_per_request_stay_in_budget(profiles, op):
    stats, responses, units = profiles[op]
    assert all(response["ok"] for response in responses)
    if op != "lookup":
        # Fresh placements: the kernel ran for every record counted.
        results = [r for response in responses
                   for r in response.get("results", [response])]
        assert len(results) == units
        assert not any(r["cached"] for r in results)
    _check_budget(op, stats, units)


def test_one_planted_call_per_lookup_fails_the_budget(tmp_path):
    service = _warm_service(tmp_path)
    lookup = service._op_lookup

    def planted(request):
        return lookup(request)

    service._op_lookup = planted
    try:
        lines, units = _requests()["lookup"]
        stats, _responses = _profile(service, lines)
    finally:
        service.close()
    with pytest.raises(pytest.fail.Exception,
                       match=r"lookup: 33\.00 calls per unit"):
        _check_budget("lookup", stats, units)


def test_a_collection_cannot_land_in_the_profile(tmp_path):
    """A ``gc.callbacks`` entry and a collection on every allocation
    leave the ``lookup`` count exactly where it is without them."""
    lines, _units = _requests()["lookup"]
    service = _warm_service(tmp_path)
    threshold = gc.get_threshold()
    fired = []

    def callback(phase, info):
        fired.append(phase)

    try:
        quiet, _responses = _profile(service, lines)
        gc.callbacks.append(callback)
        gc.set_threshold(1)
        try:
            noisy, _responses = _profile(service, lines)
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(callback)
    finally:
        service.close()
    assert fired, "no collection ran: the test shows nothing"
    assert noisy.total_calls == quiet.total_calls
