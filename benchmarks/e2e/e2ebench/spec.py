"""The benchmark's declarations: workloads, metric names, units, bounds.

This module is the single source for every name the benchmark prints.
``BENCHMARK.json`` at the repo root is rendered from it
(``run.py --write-benchmark-json``) and a harness test asserts the two
agree, so a later change cannot rename a metric in one place only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one driver run takes, start to finish (``--seconds`` default).
RUN_SECONDS = 30

#: Topology seed.  The graph's *shape* is a constant of the benchmark;
#: ``--seed`` varies the bytes of the input file and the request
#: sequences instead (README.md, "What the seed varies", has the
#: measurements behind that choice).
GRAPH_SEED = 7
NUM_VERTICES = 20_000
NUM_PARTITIONS = 32
#: CLI defaults of ``repro-partition`` — pinned here so the in-process
#: workloads and the server children run the same configuration.
SLACK = 1.1
LAM = 0.5
#: Sliding-window X of the bounded-memory workload.
WINDOW_SHARDS = 8

#: Slice width of the stream-window workload, in records.
WINDOW_SLICE = 512
#: ``place_batch`` size of the serve-batch workload.
BATCH_SIZE = 64
#: serve-mixed: placements per pass and lookups after each one.
MIXED_PLACES = 2_000
MIXED_LOOKUPS_PER_PLACE = 3

#: The calibration loop (``calibration.py``) runs between any two
#: slices of the in-process workloads; the serve workloads, whose slices
#: are single requests, run it after every so many requests (about
#: every 15 ms either way).
CALIBRATE_EVERY = {"serve-batch": 8, "serve-mixed": 200}
#: Rounds of the loop per reading where the slices next to it are long
#: (a pipeline stage, a process start): a steadier reading for ~2 ms.
STAGE_ROUNDS = 4

#: Fresh ``python`` children timed for the batch workloads' ``setup_s``.
SETUP_CHILDREN = 10
#: Seconds the layer probes of a traced run take; its pass loop stops
#: that long before the run's deadline.
PROBE_SECONDS = 12.0
#: Passes of a ``--quick`` run (harness tests only; numbers from it are
#: not comparable with a full run).
QUICK_PASSES = 2


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str


WORKLOADS = (
    WorkloadSpec("batch-file",
             "text file -> parser -> fused kernel (dense Gamma) -> saved "
             "route table, in process; the service does no work"),
    WorkloadSpec("stream-window",
             "FileStream -> record loop with the sliding-window Gamma "
             "(X=8); graph never in memory; parser cache and fused kernel "
             "do no work"),
    WorkloadSpec("serve-batch",
             "placement server child, place_batch of 64 in id order, "
             "closed loop; wire codec, engine queue, fused kernel and "
             "group-commit WAL; parser does no work (cache hit)"),
    WorkloadSpec("serve-mixed",
             "same server, single place + 3 lookups each; per-request "
             "overhead, one WAL commit per placement and the seqlock read "
             "view; kernel arithmetic is negligible"),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("records_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("edge_locality", "ratio", "higher", 0.005),
    Metric("delta_v", "ratio", "lower", 0.005),
)

PER_LAYER = (
    # ingest: graph.io, ingest.chunked, ingest.cache
    Metric("ingest.parse_s", "s", "lower"),
    Metric("ingest.parse_mb_per_s", "MB/s", "higher"),
    Metric("ingest.parse_calls_per_record", "count", "lower"),
    Metric("ingest.cache_load_ms", "ms", "lower"),
    Metric("ingest.cache_write_ms", "ms", "lower"),
    Metric("ingest.cache_bytes", "bytes", "lower"),
    # stream: graph.stream, ingest.prefetch
    Metric("stream.file_drain_s", "s", "lower"),
    Metric("stream.prefetch_drain_s", "s", "lower"),
    Metric("stream.prefetch_consumer_wait_s", "s", "lower"),
    Metric("stream.prefetch_producer_blocked_s", "s", "lower"),
    Metric("stream.array_build_ms", "ms", "lower"),
    # partitioning: partitioning.base, .spnl
    Metric("partitioning.kernel_s", "s", "lower"),
    Metric("partitioning.kernel_calls_per_record", "count", "lower"),
    Metric("partitioning.record_loop_s", "s", "lower"),
    Metric("partitioning.record_calls_per_record", "count", "lower"),
    Metric("partitioning.fast_path", "bool", "higher"),
    Metric("partitioning.setup_ms", "ms", "lower"),
    Metric("partitioning.capacity_overflows", "count", "lower"),
    # gamma: partitioning.expectation, .window
    Metric("gamma.dense_record_us", "us", "lower"),
    Metric("gamma.dense_gather_us", "us", "lower"),
    Metric("gamma.window_record_us", "us", "lower"),
    Metric("gamma.window_gather_us", "us", "lower"),
    Metric("gamma.window_advance_us", "us", "lower"),
    Metric("gamma.dense_bytes", "bytes", "lower"),
    Metric("gamma.window_bytes", "bytes", "lower"),
    # persistence, metrics
    Metric("persistence.save_ms", "ms", "lower"),
    Metric("metrics.evaluate_ms", "ms", "lower"),
    # protocol: service.protocol, on a 64-item place_batch and a single place
    Metric("protocol.encode_request_us", "us", "lower"),
    Metric("protocol.decode_response_us", "us", "lower"),
    Metric("protocol.request_bytes_per_record", "bytes", "lower"),
    Metric("protocol.response_bytes_per_record", "bytes", "lower"),
    Metric("protocol.encode_request_single_us", "us", "lower"),
    Metric("protocol.decode_response_single_us", "us", "lower"),
    Metric("protocol.request_bytes_single", "bytes", "lower"),
    Metric("protocol.response_bytes_single", "bytes", "lower"),
    # wal, snapshot: service.wal, recovery.snapshot
    Metric("wal.append_us_per_entry", "us", "lower"),
    Metric("wal.fsync_disk_ms", "ms", "lower"),
    Metric("wal.bytes_per_entry", "bytes", "lower"),
    Metric("wal.replay_s", "s", "lower"),
    Metric("snapshot.write_ms", "ms", "lower"),
    Metric("snapshot.bytes", "bytes", "lower"),
    # server: the stats op at the end of a serve pass
    Metric("server.fused_fraction", "ratio", "higher"),
    Metric("server.groups_per_request", "ratio", "lower"),
    Metric("server.engine_us_per_record", "us", "lower"),
    Metric("server.engine_busy_fraction", "ratio", "lower"),
    Metric("server.place_batch_p50_ms", "ms", "lower"),
    Metric("server.place_p50_ms", "ms", "lower"),
    Metric("server.lookup_p50_us", "us", "lower"),
    Metric("server.read_view_retries", "count", "lower"),
    Metric("server.shed", "count", "lower"),
    # client: the benchmark's own connection
    Metric("client.rtt_floor_us", "us", "lower"),
    Metric("client.wait_fraction", "ratio", "lower"),
    Metric("client.rtt_p99_ms", "ms", "lower"),
    # host, trace
    Metric("host.spin_min_ms", "ms", "lower"),
    Metric("host.interference_ratio", "ratio", "lower"),
    Metric("host.records_per_s_mean", "1/s", "higher"),
    Metric("trace.overhead_pct", "%", "lower"),
    Metric("trace.unaccounted_pct", "%", "lower"),
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
