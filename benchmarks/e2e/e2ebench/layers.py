"""The traced run: spans of the workload, then a probe of every layer.

Layers are the repo's modules.  Each probe times calls into a layer's
public functions on the run's own inputs — the same graph file, the
same neighbour arrays, the same route table — so a per-layer number
can be set beside the end-to-end one it is part of.  README.md lists,
for every metric here, the end-to-end metric it should move.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import PartitionAssignment, evaluate
from repro.graph.io import read_adjacency
from repro.graph.stream import FileStream, GraphStream, as_array_stream
from repro.ingest.cache import read_graph_cache, write_graph_cache
from repro.ingest.prefetch import PrefetchStream
from repro.partitioning.expectation import FullExpectationStore
from repro.partitioning.persistence import save_assignment
from repro.partitioning.window import SlidingWindowStore
from repro.service.protocol import decode_line, encode_message
from repro.service.wal import PlacementLog, WalEntry, replay_entries

from . import spec
from .calibration import NOMINAL_S
from .estimator import composite, floor
from .inputs import Inputs, partition_config
from .runner import PassLog
from .tracing import ROOT_SPAN, Tracer, layer_table
from .workloads import make_workload

__all__ = ["per_layer_metrics"]

_now = time.perf_counter

#: Closure tolerances: layer self times against the composite pass time,
#: and the client's round trip against server latency + client share.
STAGE_CLOSURE = 0.05
RTT_CLOSURE = 0.10


def _best(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Fastest of ``repeats`` calls and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = _now()
        out = fn()
        best = min(best, _now() - start)
    return best, out


def _calls(fn: Callable[[], Any]) -> int:
    """Function calls ``fn`` makes, by cProfile; repeats exactly for
    single-threaded deterministic code."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


# ----------------------------------------------------------------------
# layer probes
# ----------------------------------------------------------------------
def _probe_ingest(inputs: Inputs, out: dict[str, float]) -> None:
    path, n = inputs.adjacency_path, inputs.graph.num_vertices
    parse_s, graph = _best(lambda: read_adjacency(path), 3)
    out["ingest.parse_s"] = parse_s
    out["ingest.parse_mb_per_s"] = path.stat().st_size / 1e6 / parse_s
    out["ingest.parse_calls_per_record"] = \
        _calls(lambda: read_adjacency(path)) / n
    cache = inputs.workdir / "probe.reprocsr"
    write_s, _ = _best(
        lambda: write_graph_cache(cache, graph, source=path), 3)
    load_s, _ = _best(lambda: read_graph_cache(cache), 5)
    out["ingest.cache_write_ms"] = write_s * 1e3
    out["ingest.cache_load_ms"] = load_s * 1e3
    out["ingest.cache_bytes"] = float(cache.stat().st_size)


def _drain(stream) -> None:
    for _record in stream:
        pass


def _probe_stream(inputs: Inputs, out: dict[str, float]) -> None:
    path = inputs.adjacency_path
    file_stream = FileStream(path)
    out["stream.file_drain_s"], _ = _best(lambda: _drain(file_stream), 2)
    best = None
    for _ in range(2):
        prefetch = PrefetchStream(path)
        start = _now()
        _drain(prefetch)
        elapsed = _now() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, prefetch.ingest_stats())
    out["stream.prefetch_drain_s"] = best[0]
    out["stream.prefetch_consumer_wait_s"] = \
        best[1]["consumer_wait_seconds"]
    out["stream.prefetch_producer_blocked_s"] = \
        best[1]["producer_blocked_seconds"]
    build_s, _ = _best(
        lambda: as_array_stream(GraphStream(inputs.graph)).max_degree, 5)
    out["stream.array_build_ms"] = build_s * 1e3


def _probe_partitioning(inputs: Inputs, out: dict[str, float]) -> None:
    graph, n = inputs.graph, inputs.graph.num_vertices

    def run(fast: bool):
        start = _now()
        result = partition_config().make().partition(
            GraphStream(graph), fast=fast)
        return result, _now() - start

    fused = [run(True) for _ in range(3)]
    out["partitioning.kernel_s"] = min(
        r.elapsed_seconds for r, _ in fused)
    # partition() minus its own timed loop: state, Gamma store and
    # kernel set-up before, route-table copy and stats after.
    out["partitioning.setup_ms"] = min(
        wall - r.elapsed_seconds for r, wall in fused) * 1e3
    out["partitioning.kernel_calls_per_record"] = \
        _calls(lambda: run(True)) / n
    out["partitioning.record_loop_s"] = min(
        run(False)[0].elapsed_seconds for _ in range(2))
    out["partitioning.record_calls_per_record"] = \
        _calls(lambda: run(False)) / n
    result = fused[-1][0]
    out["partitioning.fast_path"] = float(result.fast_path)
    out["partitioning.capacity_overflows"] = float(result.capacity_overflows)


def _replay_gamma(store, inputs: Inputs, *, advance: bool
                  ) -> tuple[float, float, float]:
    """Replay the workload's neighbour arrays into a bare store, in
    stream order with the reference route's pids; returns seconds per
    call of ``(advance_to, gather_into, record)``."""
    graph, route = inputs.graph, inputs.reference_route
    indptr, indices = graph.indptr, graph.indices
    scratch = np.zeros(spec.NUM_PARTITIONS, dtype=np.int64)
    t_advance = t_gather = t_record = 0.0
    n = graph.num_vertices
    for v in range(n):
        neighbors = indices[indptr[v]:indptr[v + 1]]
        pid = int(route[v])
        a = _now()
        if advance:
            store.advance_to(v)
        b = _now()
        store.gather_into(neighbors, scratch)
        c = _now()
        store.record(pid, neighbors)
        t_record += _now() - c
        t_gather += c - b
        t_advance += b - a
    return t_advance / n, t_gather / n, t_record / n


def _probe_gamma(inputs: Inputs, out: dict[str, float]) -> None:
    n, k = inputs.graph.num_vertices, spec.NUM_PARTITIONS
    dense = [_replay_gamma(FullExpectationStore(k, n), inputs,
                           advance=False) for _ in range(2)]
    window = [_replay_gamma(
        SlidingWindowStore(k, n, num_shards=spec.WINDOW_SHARDS), inputs,
        advance=True) for _ in range(2)]
    out["gamma.dense_gather_us"] = min(r[1] for r in dense) * 1e6
    out["gamma.dense_record_us"] = min(r[2] for r in dense) * 1e6
    out["gamma.window_advance_us"] = min(r[0] for r in window) * 1e6
    out["gamma.window_gather_us"] = min(r[1] for r in window) * 1e6
    out["gamma.window_record_us"] = min(r[2] for r in window) * 1e6
    out["gamma.dense_bytes"] = float(FullExpectationStore(k, n).nbytes())
    out["gamma.window_bytes"] = float(SlidingWindowStore(
        k, n, num_shards=spec.WINDOW_SHARDS).nbytes())


def _probe_persistence(inputs: Inputs, out: dict[str, float]) -> None:
    assignment = PartitionAssignment(inputs.reference_route,
                                     spec.NUM_PARTITIONS)
    target = inputs.workdir / "probe-routes.txt"
    save_s, _ = _best(lambda: save_assignment(
        assignment, target, graph=inputs.graph, partitioner="SPNL"), 3)
    evaluate_s, _ = _best(lambda: evaluate(inputs.graph, assignment), 3)
    out["persistence.save_ms"] = save_s * 1e3
    out["metrics.evaluate_ms"] = evaluate_s * 1e3


def _probe_protocol(sample, count: int, suffix: str,
                    out: dict[str, float]) -> None:
    """Encode the request and decode the response of a real exchange."""
    request, response = sample
    line = encode_message(response)
    encode_s, payload = _best(lambda: encode_message(request), 200)
    decode_s, _ = _best(lambda: decode_line(line), 200)
    per = "_per_record" if count > 1 else ""
    out[f"protocol.encode_request{suffix}_us"] = encode_s * 1e6
    out[f"protocol.decode_response{suffix}_us"] = decode_s * 1e6
    out[f"protocol.request_bytes{per}{suffix}"] = len(payload) / count
    out[f"protocol.response_bytes{per}{suffix}"] = len(line) / count


def _probe_wal(inputs: Inputs, out: dict[str, float]) -> None:
    route = inputs.reference_route
    entries = [WalEntry(seq=v, vertex=v, neighbors=None, pid=int(route[v]))
               for v in range(len(route))]
    directory = inputs.workdir / "probe-wal"
    log = PlacementLog(directory, fsync=False)
    try:
        start = _now()
        for lo in range(0, len(entries), spec.BATCH_SIZE):
            log.append_batch(entries[lo:lo + spec.BATCH_SIZE])
        append_s = _now() - start
    finally:
        log.close()
    out["wal.append_us_per_entry"] = append_s / len(entries) * 1e6
    out["wal.bytes_per_entry"] = \
        log.active_path.stat().st_size / len(entries)
    replay_s, replayed = _best(
        lambda: sum(1 for _ in replay_entries(directory)), 2)
    if replayed != len(entries):
        raise RuntimeError(f"WAL replay gave {replayed} entries")
    out["wal.replay_s"] = replay_s
    # One durable single-entry group on the checkout's own device: the
    # cost the serve workloads leave out (``--no-fsync``).
    durable = PlacementLog(inputs.workdir / "probe-wal-fsync", fsync=True)
    try:
        fsync_s = float("inf")
        for entry in entries[:50]:
            start = _now()
            durable.append_batch([entry])
            fsync_s = min(fsync_s, _now() - start)
    finally:
        durable.close()
    out["wal.fsync_disk_ms"] = fsync_s * 1e3


def _probe_serving(inputs: Inputs, log: PassLog,
                   out: dict[str, float]) -> None:
    """One traced pass of each server workload, for the ``stats``-op
    numbers and the client's own share of a round trip."""
    tracer = Tracer()
    passes = {}
    for name in ("serve-batch", "serve-mixed"):
        tracer.pass_number += 1
        passes[name] = make_workload(
            name, inputs, log.workload.children).one_pass(tracer)
        log.account(passes[name])
    batch, mixed = passes["serve-batch"], passes["serve-mixed"]
    stats = batch.stats
    placements = stats["placements"]
    out["server.fused_fraction"] = \
        stats["fast_path"]["fused_placements"] / placements
    out["server.groups_per_request"] = \
        stats["groups_processed"] / len(batch.slices)
    out["server.engine_us_per_record"] = \
        stats["engine_seconds"] / placements * 1e6
    out["server.engine_busy_fraction"] = \
        stats["engine_seconds"] / batch.wall_s
    out["server.place_batch_p50_ms"] = \
        stats["latency"]["place_batch"]["p50_ms"]
    out["server.place_p50_ms"] = mixed.stats["latency"]["place"]["p50_ms"]
    out["server.lookup_p50_us"] = \
        mixed.stats["latency"]["lookup"]["p50_ms"] * 1e3
    out["server.read_view_retries"] = float(
        stats["read_view"]["retries"] + mixed.stats["read_view"]["retries"])
    out["server.shed"] = float(
        stats["admission"]["shed_total"]
        + mixed.stats["admission"]["shed_total"])
    out["snapshot.write_ms"] = batch.snapshot_s * 1e3
    out["snapshot.bytes"] = float(batch.snapshot_bytes)
    _probe_protocol(batch.sample, spec.BATCH_SIZE, "", out)
    _probe_protocol(mixed.sample, 1, "_single", out)
    out["client.rtt_floor_us"] = \
        min(batch.rtt_floor_s, mixed.rtt_floor_s) * 1e6
    waits = sum(end - start for name, start, end, _, _ in tracer.spans
                if name == "transport+server")
    trips = sum(end - start for name, start, end, _, _ in tracer.spans
                if name.startswith("client."))
    out["client.wait_fraction"] = waits / trips
    out["client.rtt_p99_ms"] = float(np.percentile(
        mixed.slices, 99, method="inverted_cdf")) * 1e3


# ----------------------------------------------------------------------
# closure of the traced workload
# ----------------------------------------------------------------------
def _closure(workload, traced: list, tracer: Tracer
             ) -> tuple[list[str], list[str], float]:
    """The layer table of the traced passes and its closure checks;
    returns ``(table lines, problems, worst unaccounted share)``."""
    _, total = floor([r.slices for r in traced])
    table = layer_table(tracer)
    lines = [f"  layer self times, {workload.name} (raw seconds, "
             f"per-position minimum over {len(traced)} traced passes):"]
    for name in sorted(table, key=table.get, reverse=True):
        lines.append(f"    {name:<32} {table[name] * 1e3:>12.3f} ms  "
                     f"{table[name] / total:>7.2%}")
    accounted = sum(v for name, v in table.items() if name != ROOT_SPAN)
    lines.append(f"    {'sum of layers':<32} {accounted * 1e3:>12.3f} ms  "
                 f"vs pass time without calibration {total * 1e3:.3f} ms")
    # Closure, pass by pass: what no layer span covers is the root
    # span's own self time.
    unaccounted = max(
        own / (end - start)
        for (name, start, end, _, _), own in zip(tracer.spans,
                                                 tracer.self_times())
        if name == ROOT_SPAN)
    lines.append(f"    layers cover all but {unaccounted:.2%} of a pass "
                 f"(tolerance {STAGE_CLOSURE:.0%})")
    problems = []
    if unaccounted > STAGE_CLOSURE:
        problems.append(f"trace does not close: {unaccounted:.2%} of a "
                        "pass is outside every layer span")
    if traced[0].stats is not None:
        op = "place_batch" if workload.name == "serve-batch" else "place"
        trips = [s for r in traced
                 for s in np.asarray(r.slices)[workload.place_positions]]
        client_ms = statistics.median(trips) * 1e3
        server_ms = statistics.median(
            r.stats["latency"][op]["p50_ms"] for r in traced)
        # The client's share: its own codec work on this op's messages
        # (from the spans) plus what a round trip costs outside both
        # processes (from the health probe).
        codec_ms = sum(
            statistics.median(
                end - start for name, start, end, parent, _ in tracer.spans
                if name == layer
                and tracer.spans[parent][0] == f"client.{op}") * 1e3
            for layer in ("protocol.encode_message", "protocol.decode_line"))
        transport_ms = statistics.median(
            r.client_share_s for r in traced) * 1e3
        gap = (client_ms - server_ms - codec_ms - transport_ms) / client_ms
        lines.append(
            f"    client {op} round trip p50 {client_ms:.4f} ms = server "
            f"{server_ms:.4f} ms + client codec {codec_ms:.4f} ms + "
            f"transport {transport_ms:.4f} ms "
            f"(gap {gap:+.2%}, tolerance {RTT_CLOSURE:.0%})")
        if abs(gap) > RTT_CLOSURE:
            problems.append(
                f"round trip does not close: client {client_ms:.4f} ms, "
                f"server {server_ms:.4f} ms, codec {codec_ms:.4f} ms, "
                f"transport {transport_ms:.4f} ms")
    return lines, problems, unaccounted


def per_layer_metrics(workload, log: PassLog, trace_out: Path | None
                      ) -> tuple[dict[str, tuple[float, str]], int, list[str]]:
    """Body of the traced run; returns ``(metrics, passes, table
    lines)``.  See the module docstring."""
    inputs = workload.inputs
    out: dict[str, float] = {}
    tracer = Tracer()
    plain, traced = [], []
    # Plain and traced passes alternate, so both see the same host, and
    # stop in time for the layer probes below.
    while log.more_passes(len(plain), each=2, reserve=spec.PROBE_SECONDS):
        plain.append(log.run())
        traced.append(log.run(tracer))

    _, plain_total = composite([r.slices for r in plain],
                               [r.slowdown for r in plain])
    _, traced_total = composite([r.slices for r in traced],
                                [r.slowdown for r in traced])
    lines, problems, unaccounted = _closure(workload, traced, tracer)
    log.problems += problems
    out["trace.overhead_pct"] = (traced_total / plain_total - 1.0) * 100.0
    out["trace.unaccounted_pct"] = unaccounted * 100.0
    # What the host did to identical work while the run was going on:
    # the calibration loop's own times around the plain passes' slices.
    loop_s = np.concatenate([r.slowdown for r in plain]) * NOMINAL_S
    out["host.spin_min_ms"] = float(loop_s.min()) * 1e3
    out["host.interference_ratio"] = float(loop_s.mean() / loop_s.min())
    # The plain whole-run mean of raw seconds, for comparison with the
    # composite.
    out["host.records_per_s_mean"] = \
        workload.records * len(plain) / sum(r.wall_s for r in plain)
    lines.append(
        f"    composite {workload.records / plain_total:.1f} rec/s on the "
        f"nominal host vs whole-run mean {out['host.records_per_s_mean']:.1f}"
        f" rec/s of raw seconds over {len(plain)} plain passes")

    _probe_ingest(inputs, out)
    _probe_stream(inputs, out)
    _probe_partitioning(inputs, out)
    _probe_gamma(inputs, out)
    _probe_persistence(inputs, out)
    _probe_wal(inputs, out)
    _probe_serving(inputs, log, out)

    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_out / f"{workload.name}.spans.jsonl")
    missing = {m.name for m in spec.PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with spec.py: "
                           f"{sorted(missing)}")
    metrics = {m.name: (out[m.name], m.unit) for m in spec.PER_LAYER}
    return metrics, len(plain) + len(traced), lines
