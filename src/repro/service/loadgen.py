"""Load generator + bench artifact for the placement service.

Boots a fresh in-process :class:`~repro.service.PlacementService` per
repeat, drives it with N concurrent *open-loop* connections issuing
id-ordered ``place_batch`` chunks (the paper's streaming arrival model,
sharded across connections), then samples the read path with pipelined
``lookup`` bursts.  Each connection is a raw socket keeping up to
``window`` requests in flight and reading responses in order — the
protocol answers per-connection requests in order, so pipelining needs
no request/response matching beyond a deque.  A closed-loop generator
(one request in flight per connection) cannot saturate a multicore
server: its offered load is bounded by round trips, so every latency
win looks like a throughput win and vice versa.  The windowed open loop
decouples the two, which is what makes sharded-vs-sequential numbers
comparable.

Per repeat the per-connection latency lists are merged before the
percentile cut — a per-connection cut would hide stragglers behind the
fastest connection's volume.  Two honesty fields ride along:

``server_wait_fraction``
    Fraction of the clients' aggregate wall time spent blocked on the
    server's responses.  Near 1.0 means the server was the bottleneck
    (the number measures the server); near 0.0 means the generator was.
``client_bound``
    ``server_wait_fraction < 0.5`` — the load generator (GIL-sharing
    client threads on a small host) was the dominant cost, so the
    throughput figure is a *lower bound* on the server, not a
    measurement of it.  Scaling claims must not be read off a
    ``client_bound`` record.

The artifact (``BENCH_service.json``) follows the repo's bench
conventions (:mod:`repro.bench.micro`): ``machine`` fingerprint,
``config``, and per-endpoint ``runs_s`` sample lists so the PR-5
compare/promote/gate machinery (:mod:`repro.bench.compare`) can verdict
service latency changes statistically.  The latency metrics
(``place_batch/p50`` … ``lookup/p99``) are durations — lower is better —
while throughput rides along as an informational field.  With
``overload=True`` an extra ``place_overload`` record measures the
degraded half: p99 latency of *accepted* requests and the shed rate
while offered load exceeds a deliberately throttled server's capacity
(see :func:`_overload_round`).

Sharded runs (``processes > 1``) record ``mode``/``processes``/
``parallelism`` plus ``scaling_expected``: ``False`` on hosts with
fewer than four CPUs, where process sharding cannot demonstrate a
speedup and a regression gate against a multicore baseline would be
comparing regimes (see the compare module's cross-machine warnings).

A parity check runs after each repeat: the service's final route table
is compared against the matching deterministic reference — a batch
:func:`repro.partition_stream` pass at M=1, or
:class:`~repro.parallel.SimulatedParallelPartitioner` at the same M for
grouped engines.  The check gates only when every measured repeat's
traffic reached the server in exact id order (``arrival_ordered``) and,
for M>1, when the engine's chunk sequence stayed M-aligned
(``m_aligned`` — pick ``batch_size`` divisible by M to keep it so);
repeats where either flag raced are reported under
``reordered_repeats`` instead of being allowed to flake the gate.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

import numpy as np

from ..graph.digraph import DiGraph
from ..graph.generators import community_web_graph
from ..partitioning.config import PartitionConfig
from ..recovery.atomic import atomic_write_text
from .client import BackpressureError, ServiceClient
from .protocol import (
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    decode_line,
    encode_message,
)
from .server import PlacementService, resolve_sharded_config

__all__ = ["DEFAULT_ARTIFACT", "run_service_bench"]

DEFAULT_ARTIFACT = "BENCH_service.json"


def _summary(times: list[float]) -> dict[str, Any]:
    """The repo-standard per-metric summary (see bench.micro)."""
    return {
        "median_s": statistics.median(times),
        "stdev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
        "min_s": min(times),
        "max_s": max(times),
        "runs_s": times,
    }


def _percentile(ordered: list[float], q: float) -> float:
    idx = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 1)) - 1))
    return ordered[idx]


class _ChunkFeed:
    """Hands out consecutive ``[start, stop)`` vertex chunks to clients."""

    def __init__(self, total: int, chunk: int) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._total = total
        self._chunk = chunk

    def take(self) -> tuple[int, int] | None:
        with self._lock:
            if self._next >= self._total:
                return None
            start = self._next
            stop = min(self._total, start + self._chunk)
            self._next = stop
            return start, stop


class _ConnStats:
    """One connection's measurements, merged by the driver."""

    __slots__ = ("latencies", "wait_seconds", "retries")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wait_seconds = 0.0
        self.retries = 0


def _open_conn(address: tuple[str, int]) -> tuple[socket.socket, Any]:
    sock = socket.create_connection(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def _place_worker(address: tuple[str, int], feed: _ChunkFeed,
                  window: int, pause: float, out: _ConnStats,
                  errors: list[str]) -> None:
    """One open-loop connection: up to ``window`` requests in flight.

    Responses come back in request order (the protocol's per-connection
    guarantee), so one deque of (send time, chunk) pairs is the whole
    bookkeeping.  A retryable rejection (``backpressure``/
    ``overloaded``) re-offers the chunk through the same window — no
    sleep, because the window itself paces: a re-send only happens
    after a response drained, so offered load tracks the server's
    actual drain rate instead of spinning.
    """
    try:
        sock, rfile = _open_conn(address)
        inflight: deque[tuple[int, float, tuple[int, int]]] = deque()
        retry_chunks: deque[tuple[int, int]] = deque()
        next_id = 0
        try:
            while True:
                while len(inflight) < window:
                    if retry_chunks:
                        chunk = retry_chunks.popleft()
                    else:
                        maybe = feed.take()
                        if maybe is None:
                            break
                        chunk = maybe
                    start, stop = chunk
                    payload = encode_message({
                        "protocol": PROTOCOL_VERSION,
                        "op": "place_batch", "id": next_id,
                        "items": list(range(start, stop))})
                    t0 = time.perf_counter()
                    sock.sendall(payload)
                    inflight.append((next_id, t0, chunk))
                    next_id += 1
                    if pause:
                        time.sleep(pause)
                if not inflight:
                    return
                t_wait = time.perf_counter()
                line = rfile.readline()
                now = time.perf_counter()
                out.wait_seconds += now - t_wait
                if not line:
                    raise RuntimeError("server closed the connection")
                response = decode_line(line)
                rid, t0, chunk = inflight.popleft()
                if response.get("id") != rid:
                    raise RuntimeError(
                        f"pipelined response id {response.get('id')!r} "
                        f"!= expected {rid}")
                if response.get("ok"):
                    out.latencies.append(now - t0)
                else:
                    error = response.get("error") or {}
                    if error.get("code") in RETRYABLE_CODES:
                        out.retries += 1
                        retry_chunks.append(chunk)
                    else:
                        raise RuntimeError(
                            f"place_batch failed: {error}")
        finally:
            rfile.close()
            sock.close()
    except Exception as exc:  # surfaced by the driver, never swallowed
        errors.append(repr(exc))


def _lookup_worker(address: tuple[str, int], vertices: np.ndarray,
                   window: int, out: _ConnStats,
                   errors: list[str]) -> None:
    """Pipelined lookups: same windowed open loop, read-path ops."""
    try:
        sock, rfile = _open_conn(address)
        inflight: deque[tuple[int, float]] = deque()
        cursor = 0
        next_id = 0
        try:
            while True:
                while len(inflight) < window and cursor < len(vertices):
                    payload = encode_message({
                        "protocol": PROTOCOL_VERSION, "op": "lookup",
                        "id": next_id,
                        "vertex": int(vertices[cursor])})
                    t0 = time.perf_counter()
                    sock.sendall(payload)
                    inflight.append((next_id, t0))
                    next_id += 1
                    cursor += 1
                if not inflight:
                    return
                t_wait = time.perf_counter()
                line = rfile.readline()
                now = time.perf_counter()
                out.wait_seconds += now - t_wait
                if not line:
                    raise RuntimeError("server closed the connection")
                response = decode_line(line)
                rid, t0 = inflight.popleft()
                if response.get("id") != rid:
                    raise RuntimeError(
                        f"pipelined response id {response.get('id')!r} "
                        f"!= expected {rid}")
                if not response.get("ok"):
                    raise RuntimeError(
                        f"lookup failed: {response.get('error')}")
                out.latencies.append(now - t0)
        finally:
            rfile.close()
            sock.close()
    except Exception as exc:
        errors.append(repr(exc))


def _overload_worker(address: tuple[str, int], feed: _ChunkFeed,
                     latencies: list[float], sheds: list[int],
                     errors: list[str]) -> None:
    """Place chunks against a deliberately under-provisioned server.

    Deliberately *closed-loop* (one request in flight): the overload
    phase measures the shed path's behavior at a known offered
    concurrency, so the connection count — not a window — is the load
    knob.  Every shed (``overloaded``/``backpressure``) is counted,
    then the chunk is re-offered after the server's ``retry_after_ms``
    hint (capped — we are measuring the shed path, not sleeping through
    it).  Latencies record accepted attempts only: p99-under-overload
    is the queueing delay survivors actually paid.
    """
    try:
        with ServiceClient(*address) as client:
            while True:
                chunk = feed.take()
                if chunk is None:
                    return
                start, stop = chunk
                while True:
                    t0 = time.perf_counter()
                    try:
                        client.place_batch(list(range(start, stop)))
                    except BackpressureError as exc:
                        sheds[0] += 1
                        time.sleep(min(exc.retry_after_ms, 5) / 1000.0)
                    else:
                        latencies.append(time.perf_counter() - t0)
                        break
    except Exception as exc:
        errors.append(repr(exc))


def _overload_round(graph: DiGraph, config: PartitionConfig, *,
                    clients: int, batch_size: int, num_vertices: int,
                    queue_depth: int, throttle_seconds: float
                    ) -> tuple[list[float], int, dict[str, Any]]:
    """One overload repeat: fresh throttled server, offered load > capacity.

    ``batch_max=1`` makes every request its own engine group so the
    throttle bounds the drain rate directly (one batch per
    ``throttle_seconds``), and the shed watermark sits at half the
    (small) ``queue_depth`` — synchronous clients can only stack the
    queue as deep as their connection count, so the watermark must sit
    below it for admission control to engage at all.  Returns (accepted
    latencies, client-side shed count, server admission stats).
    """
    service = PlacementService.start(
        graph, config=config, port=0, snapshot_dir=None,
        queue_depth=queue_depth, batch_max=1,
        throttle_seconds=throttle_seconds,
        shed_watermark=0.5)
    try:
        feed = _ChunkFeed(num_vertices, batch_size)
        errors: list[str] = []
        lat_lists: list[list[float]] = [[] for _ in range(clients)]
        shed_cells: list[list[int]] = [[0] for _ in range(clients)]
        threads = [
            threading.Thread(
                target=_overload_worker,
                args=(service.address, feed, lat_lists[c],
                      shed_cells[c], errors),
                daemon=True)
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError(f"serve-bench overload client failed: "
                               f"{errors[0]}")
        admission = service._admission.stats()
    finally:
        service.close()
    latencies = sorted(t for lat in lat_lists for t in lat)
    sheds = sum(cell[0] for cell in shed_cells)
    return latencies, sheds, admission


def _reference_route(graph: DiGraph, config: PartitionConfig,
                     parallelism: int) -> np.ndarray:
    """The deterministic route table this traffic should reproduce."""
    if parallelism > 1:
        from ..graph import GraphStream
        from ..parallel import SimulatedParallelPartitioner
        sim = SimulatedParallelPartitioner(
            config.make(), parallelism=parallelism, use_rct=False)
        return sim.partition(GraphStream(graph)).assignment.route
    from ..api import partition_stream
    return partition_stream(graph, config=config).assignment.route


def run_service_bench(graph: DiGraph | None = None, *,
                      num_vertices: int = 20_000, seed: int = 7,
                      config: PartitionConfig | None = None,
                      clients: int = 4, batch_size: int = 64,
                      window: int = 4,
                      lookups_per_client: int = 500,
                      repeats: int = 3, warmup: int = 1,
                      target_rps: float | None = None,
                      durable: bool = True, queue_depth: int = 64,
                      batch_max: int = 256,
                      processes: int = 1,
                      parallelism: int | None = None,
                      overload: bool = False,
                      overload_queue_depth: int = 4,
                      overload_throttle: float = 0.002,
                      out_path: str | Path | None = DEFAULT_ARTIFACT,
                      verbose: bool = False,
                      profile=None) -> dict[str, Any]:
    """Bench the service end to end; returns (and writes) the artifact.

    Each repeat boots a fresh server on an ephemeral port (durable into
    a throwaway snapshot directory unless ``durable=False``), places the
    whole graph through ``clients`` open-loop connections in
    ``batch_size`` chunks with up to ``window`` requests in flight per
    connection, then issues ``lookups_per_client`` pipelined random
    lookups per client.  ``target_rps`` paces placement *requests* per
    second across all clients (``None`` = full speed).

    ``processes``/``parallelism`` boot the sharded scoring engine
    (see :class:`~repro.service.PlacementService`); the artifact then
    records the engine shape and a ``scaling_expected`` flag that is
    ``False`` below four CPUs — single-core hosts can demonstrate
    correctness of the sharded path but not its speedup.

    ``overload=True`` appends an overload phase: per repeat, a fresh
    *throttled* server (``overload_throttle`` seconds per engine group,
    ``batch_max=1``, a short ``overload_queue_depth`` queue) is offered
    more load than it can drain, so revision 1.1's admission control
    sheds.  The ``place_overload`` record captures
    p50/p95/p99-under-overload of the accepted requests plus the
    observed ``shed_rate`` — the graceful-degradation half of the
    latency story the healthy-path percentiles cannot show.

    ``profile`` (a :class:`repro.bench.profile.BenchProfiler`) appends
    two *extra* single-connection driver passes against fresh servers
    after the timed repeats — one ``place_batch/driver`` and one
    ``lookup/driver`` stage.  The timed repeats (and the artifact's
    latency samples) are untouched.  cProfile sees the calling thread
    only, so these stages profile the client driver's protocol path
    (encode/decode, socket waits) with server time showing up as
    ``readline`` wait; the profiled place pass's final route table is
    still parity-checked against the deterministic reference.  The
    overhead reference is a matching unprofiled single-connection pass,
    not the multi-client repeats, so ``overhead_pct`` compares like
    with like.
    """
    if graph is None:
        graph = community_web_graph(num_vertices, seed=seed)
    if config is None:
        config = PartitionConfig(method="spnl", num_partitions=32)
    if window < 1:
        raise ValueError("window must be >= 1")
    if processes < 1:
        raise ValueError("processes must be >= 1")
    resolved_m = parallelism if parallelism is not None else (
        16 * processes if processes > 1 else 1)
    mode = ("sharded" if processes > 1
            else "grouped" if resolved_m > 1 else "sequential")
    cpu_count = os.cpu_count() or 1
    scaling_expected = processes > 1 and cpu_count >= 4
    # Same Γ-store resolution the server applies (auto -> dense when
    # sharded): the reference partitioner must score against the store
    # the benched server actually uses or the parity flag lies.
    config = resolve_sharded_config(config, processes)
    reference = _reference_route(graph, config, resolved_m)

    pause = 0.0
    if target_rps is not None and target_rps > 0:
        pause = clients / float(target_rps)

    place_p50: list[float] = []
    place_p95: list[float] = []
    place_p99: list[float] = []
    lookup_p50: list[float] = []
    lookup_p99: list[float] = []
    throughputs: list[float] = []
    lookup_rates: list[float] = []
    fused_fractions: list[float] = []
    wait_fractions: list[float] = []
    lookup_wait_fractions: list[float] = []
    identical_flags: list[bool] = []
    reordered = 0
    retried_requests = 0

    total_rounds = warmup + repeats
    for round_idx in range(total_rounds):
        measured = round_idx >= warmup
        with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") \
                as tmp:
            service = PlacementService.start(
                graph, config=config, port=0,
                snapshot_dir=Path(tmp) / "state" if durable else None,
                queue_depth=queue_depth, batch_max=batch_max,
                processes=processes, parallelism=parallelism)
            try:
                feed = _ChunkFeed(graph.num_vertices, batch_size)
                errors: list[str] = []
                conns = [_ConnStats() for _ in range(clients)]
                threads = [
                    threading.Thread(
                        target=_place_worker,
                        args=(service.address, feed, window, pause,
                              conns[c], errors),
                        daemon=True)
                    for c in range(clients)
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - t0
                if errors:
                    raise RuntimeError(
                        f"serve-bench client failed: {errors[0]}")

                rng = np.random.default_rng(seed + round_idx)
                lookup_conns = [_ConnStats() for _ in range(clients)]
                lookup_threads = [
                    threading.Thread(
                        target=_lookup_worker,
                        args=(service.address,
                              rng.integers(0, graph.num_vertices,
                                           size=lookups_per_client),
                              window, lookup_conns[c], errors),
                        daemon=True)
                    for c in range(clients)
                ]
                t1 = time.perf_counter()
                for thread in lookup_threads:
                    thread.start()
                for thread in lookup_threads:
                    thread.join()
                lookup_wall = time.perf_counter() - t1
                if errors:
                    raise RuntimeError(
                        f"serve-bench lookup client failed: {errors[0]}")

                place_lat = sorted(t for conn in conns
                                   for t in conn.latencies)
                lookup_lat = sorted(t for conn in lookup_conns
                                    for t in conn.latencies)
                round_retries = sum(conn.retries for conn in conns)
                wait_frac = (sum(conn.wait_seconds for conn in conns)
                             / (clients * wall)) if wall else 0.0
                lookup_wait_frac = (
                    sum(conn.wait_seconds for conn in lookup_conns)
                    / (clients * lookup_wall)) if lookup_wall else 0.0
                # Parity gates on exact-id-order arrival; grouped
                # engines additionally need the chunk sequence to have
                # stayed M-aligned (see the module docstring).
                ordered = bool(service._arrival_ordered) and (
                    resolved_m == 1 or bool(service._m_aligned))
                parity = bool(np.array_equal(
                    service._state.route, reference))
                counters = service.stats()["fast_path"]
                fused = counters["fused_placements"]
                total_placed = fused + counters["record_placements"]
            finally:
                service.close()

        if not measured:
            continue
        place_p50.append(_percentile(place_lat, 0.50))
        place_p95.append(_percentile(place_lat, 0.95))
        place_p99.append(_percentile(place_lat, 0.99))
        lookup_p50.append(_percentile(lookup_lat, 0.50))
        lookup_p99.append(_percentile(lookup_lat, 0.99))
        throughputs.append(graph.num_vertices / wall if wall else 0.0)
        lookup_rates.append(len(lookup_lat) / lookup_wall
                            if lookup_wall else 0.0)
        fused_fractions.append(fused / total_placed if total_placed
                               else 0.0)
        wait_fractions.append(wait_frac)
        lookup_wait_fractions.append(lookup_wait_frac)
        retried_requests += round_retries
        if ordered:
            identical_flags.append(parity)
        else:
            reordered += 1
        if verbose:
            print(f"  repeat {len(place_p50)}/{repeats}: "
                  f"{throughputs[-1]:,.0f} placements/s, "
                  f"p99 {place_p99[-1] * 1e3:.2f} ms, "
                  f"fused {fused_fractions[-1]:.0%}, "
                  f"server-wait {wait_frac:.0%}"
                  f"{'' if ordered else ' (reordered)'}")

    from ..bench.micro import machine_fingerprint
    server_wait_median = statistics.median(wait_fractions)
    lookup_wait_median = statistics.median(lookup_wait_fractions)
    place_rec: dict[str, Any] = {
        "endpoint": "place_batch",
        "p50": _summary(place_p50),
        "p95": _summary(place_p95),
        "p99": _summary(place_p99),
        "placements_per_s": {
            "runs": throughputs,
            "median": statistics.median(throughputs),
        },
        "fused_fraction_median": statistics.median(fused_fractions),
        "server_wait_fraction": server_wait_median,
        "client_bound": server_wait_median < 0.5,
        "retried_requests": retried_requests,
        "reordered_repeats": reordered,
        "scaling_expected": scaling_expected,
    }
    # The parity flag gates only when arrival order (and, for grouped
    # engines, M-alignment) held in every measured repeat; a raced
    # arrival legitimately changes the assignment and must not flake
    # the byte-identity pseudo-metric.
    if identical_flags and reordered == 0:
        place_rec["identical"] = all(identical_flags)

    lookup_rec: dict[str, Any] = {
        "endpoint": "lookup",
        "p50": _summary(lookup_p50),
        "p99": _summary(lookup_p99),
        "lookups_per_s": {
            "runs": lookup_rates,
            "median": statistics.median(lookup_rates),
        },
        "server_wait_fraction": lookup_wait_median,
        "client_bound": lookup_wait_median < 0.5,
        "scaling_expected": scaling_expected,
    }

    overload_rec: dict[str, Any] | None = None
    if overload:
        o_p50: list[float] = []
        o_p95: list[float] = []
        o_p99: list[float] = []
        shed_rates: list[float] = []
        overload_vertices = min(graph.num_vertices,
                                clients * batch_size * 8)
        for _ in range(repeats):
            # More connections than the healthy phase: offered
            # concurrency must exceed the watermark depth for the
            # throttled engine to shed.
            lat, sheds, admission = _overload_round(
                graph, config, clients=max(4, clients * 2),
                batch_size=batch_size,
                num_vertices=overload_vertices,
                queue_depth=overload_queue_depth,
                throttle_seconds=overload_throttle)
            if not lat:  # pathological: everything shed — skip repeat
                continue
            o_p50.append(_percentile(lat, 0.50))
            o_p95.append(_percentile(lat, 0.95))
            o_p99.append(_percentile(lat, 0.99))
            accepted = len(lat)
            shed_rates.append(sheds / (sheds + accepted)
                              if sheds + accepted else 0.0)
            if verbose:
                print(f"  overload {len(o_p50)}/{repeats}: "
                      f"p99 {o_p99[-1] * 1e3:.2f} ms, "
                      f"shed rate {shed_rates[-1]:.0%} "
                      f"(server: {admission['shed_rate']:.0%})")
        if o_p50:
            overload_rec = {
                "endpoint": "place_overload",
                "p50": _summary(o_p50),
                "p95": _summary(o_p95),
                "p99": _summary(o_p99),
                "shed_rate": {
                    "runs": shed_rates,
                    "median": statistics.median(shed_rates),
                },
                "overload_config": {
                    "queue_depth": overload_queue_depth,
                    "throttle_seconds": overload_throttle,
                    "num_vertices": overload_vertices,
                },
            }

    if profile is not None:
        def _boot(tmp: str) -> PlacementService:
            return PlacementService.start(
                graph, config=config, port=0,
                snapshot_dir=Path(tmp) / "state" if durable else None,
                queue_depth=queue_depth, batch_max=batch_max,
                processes=processes, parallelism=parallelism)

        def _place_pass(service: PlacementService) -> _ConnStats:
            feed = _ChunkFeed(graph.num_vertices, batch_size)
            stats_ = _ConnStats()
            errs: list[str] = []
            _place_worker(service.address, feed, window, pause, stats_,
                          errs)
            if errs:
                raise RuntimeError(f"profiled place pass failed: "
                                   f"{errs[0]}")
            return stats_

        def _lookup_pass(service: PlacementService) -> _ConnStats:
            rng = np.random.default_rng(seed)
            stats_ = _ConnStats()
            errs: list[str] = []
            _lookup_worker(service.address,
                           rng.integers(0, graph.num_vertices,
                                        size=lookups_per_client),
                           window, stats_, errs)
            if errs:
                raise RuntimeError(f"profiled lookup pass failed: "
                                   f"{errs[0]}")
            return stats_

        # Unprofiled single-connection reference timings first, so the
        # recorded overhead compares the same workload shape.
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-bench-") as tmp:
            ref_service = _boot(tmp)
            try:
                t0 = time.perf_counter()
                _place_pass(ref_service)
                place_ref_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                _lookup_pass(ref_service)
                lookup_ref_s = time.perf_counter() - t0
            finally:
                ref_service.close()
        with tempfile.TemporaryDirectory(
                prefix="repro-serve-bench-") as tmp:
            prof_service = _boot(tmp)
            try:
                profile.profile_stage(
                    "place_batch/driver",
                    lambda: _place_pass(prof_service),
                    reference_s=place_ref_s,
                    check=lambda _res: bool(
                        prof_service._arrival_ordered
                        and (resolved_m == 1
                             or prof_service._m_aligned)
                        and np.array_equal(prof_service._state.route,
                                           reference)))
                profile.profile_stage(
                    "lookup/driver",
                    lambda: _lookup_pass(prof_service),
                    reference_s=lookup_ref_s)
            finally:
                prof_service.close()

    # Sharded runs are their own benchmark kind: a sharded artifact
    # gating against a sequential baseline (or vice versa) would be a
    # cross-regime comparison, and the compare module's kind check
    # turns that into a hard error instead of a quiet verdict.  It
    # also gives the sharded baseline its own slot in the baseline
    # store, which files baselines per (kind, fingerprint).
    artifact: dict[str, Any] = {
        "benchmark": ("service-bench-sharded" if processes > 1
                      else "service-bench"),
        "created_unix": int(time.time()),
        "machine": machine_fingerprint(),
        "config": {
            "graph": graph.name,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "method": config.method,
            "num_partitions": int(config.num_partitions),
            **({"gamma_store": config.gamma_store}
               if config.gamma_store is not None else {}),
            "clients": clients,
            "batch_size": batch_size,
            "window": window,
            "lookups_per_client": lookups_per_client,
            "repeats": repeats,
            "warmup": warmup,
            "target_rps": target_rps,
            "durable": durable,
            "queue_depth": queue_depth,
            "batch_max": batch_max,
            "mode": mode,
            "processes": processes,
            "parallelism": resolved_m,
            "scaling_expected": scaling_expected,
            "seed": seed,
            "overload": overload,
        },
        "results": [
            place_rec,
            lookup_rec,
        ],
    }
    if overload_rec is not None:
        artifact["results"].append(overload_rec)
    if profile is not None:
        artifact["profile"] = profile.entry()
    if out_path is not None:
        atomic_write_text(Path(out_path),
                          json.dumps(artifact, indent=2) + "\n")
    return artifact
