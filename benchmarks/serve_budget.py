"""Where a served placement's time goes, measured in process.

Drives :meth:`PlacementService._handle_line` with the two serve
workloads of the end-to-end benchmark (``benchmarks/e2e/``) and splits
every request into the layers the server and its client run, without a
socket between them.  No timing is asserted and nothing here runs in
tier-1 (``python benchmarks/serve_budget.py``, ~10 s, no PYTHONPATH).
Decode and WAL append are timed by wrapping ``server.decode_line`` and
``service._wal.append_batch``; a pass that never reaches either wrapper
raises instead of folding that time into bookkeeping.

The setup is the benchmark's: ``community_web_graph(20000, seed=7)``
loaded from its CSR sidecar (the ``--graph-cache`` hit the server child
boots from), SPNL at K = 32 on the dense Γ store, a WAL without fsync.

* ``serve-batch``: ``place_batch`` of 64 in id order over every vertex;
* ``serve-mixed``: ``place`` of the first 2000 vertices in id order,
  each followed by 3 ``lookup``\\ s of already placed vertices.

Per request:

============  ==========================================================
layer         what is timed
============  ==========================================================
client enc    ``encode_message`` of the request
decode        ``decode_line`` of the request, inside ``_handle_line``
kernel        ``stats()["engine_seconds"]``: the placement kernel only
WAL append    ``PlacementLog.append_batch`` (format + write + flush)
bookkeeping   the rest of ``_handle_line``: validation, parsing, queue,
              apply loop, acks, read-view publish
encode        ``encode_message`` of the response
client dec    ``decode_line`` of the response
============  ==========================================================

``server ÷ kernel`` is (decode + bookkeeping + WAL append + encode) ÷
kernel: the server's time outside the kernel per unit of kernel time.
Each workload runs ``ROUNDS`` times on a fresh service; every row is
the round with the lowest total, so one preempted round does not count.

Two reference lines follow the table: ``partition()``'s kernel time
per record with the same config (best of ``ROUNDS`` passes) over the
loaded graph and over an in-memory copy of it, next to the served
kernel's, and whether the loaded CSR arrays are aligned.  Unaligned
arrays (a sidecar whose body does not start on an 8-byte boundary)
cost numpy a copy per indexing use, which shows up as a kernel over
the loaded graph slower than over the copy.

After its requests every pass sends one ``snapshot`` op, timed, and a
second one under ``tracemalloc``: the second table prints, per workload,
the fastest op's time, the lowest traced peak and the ``.snap`` size.
The peak is what the op allocates on top of the served state: the
codec's buffers, since ``state_dict`` hands out the live arrays.
Nothing is asserted.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import PartitionConfig  # noqa: E402
from repro.graph import GraphStream, community_web_graph  # noqa: E402
from repro.graph.digraph import DiGraph  # noqa: E402
from repro.graph.io import write_adjacency  # noqa: E402
from repro.ingest.cache import load_or_parse  # noqa: E402
from repro.memory.tracker import measure_peak  # noqa: E402
from repro.service import server as server_module  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    PROTOCOL_VERSION, decode_line, encode_message)

NUM_VERTICES, GRAPH_SEED, K = 20_000, 7, 32
BATCH_SIZE, MIXED_PLACES, LOOKUPS_PER_PLACE = 64, 2_000, 3
ROUNDS = 5
LAYERS = ("client enc", "decode", "kernel", "WAL append", "bookkeeping",
          "encode", "client dec")

_now = time.perf_counter


def serve_batch_requests() -> list[dict]:
    return [{"op": "place_batch",
             "items": list(range(lo, min(lo + BATCH_SIZE, NUM_VERTICES)))}
            for lo in range(0, NUM_VERTICES, BATCH_SIZE)]


def serve_mixed_requests() -> list[dict]:
    rng = np.random.default_rng(GRAPH_SEED)
    out: list[dict] = []
    for vertex in range(MIXED_PLACES):
        out.append({"op": "place", "vertex": vertex})
        out += [{"op": "lookup", "vertex": int(target)}
                for target in rng.integers(0, vertex + 1,
                                           size=LOOKUPS_PER_PLACE)]
    return out


def snapshot_cost(service) -> dict[str, float]:
    """One timed ``snapshot`` op, then one under ``tracemalloc``."""
    def snapshot(number: int) -> dict:
        _op, reply = service._handle_line(encode_message(
            {"protocol": PROTOCOL_VERSION, "id": number, "op": "snapshot"}))
        if not reply.get("ok"):
            raise RuntimeError(f"snapshot failed: {reply}")
        return reply

    t0 = _now()
    snapshot(-1)
    seconds = _now() - t0
    reply, peak = measure_peak(lambda: snapshot(-2))
    return {"ms": seconds * 1e3, "peak_mib": peak / 2**20,
            "bytes": Path(reply["path"]).stat().st_size}


def config() -> PartitionConfig:
    return PartitionConfig(method="spnl", num_partitions=K, num_shards=1)


def in_process_kernel_us(graph) -> float:
    """``partition()``'s kernel µs per record, best of ``ROUNDS``."""
    return min(config().make().partition(GraphStream(graph)).elapsed_seconds
               for _ in range(ROUNDS)) / graph.num_vertices * 1e6


def one_pass(graph, requests: list[dict],
             workdir: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Serve ``requests`` on a fresh service, then snapshot it; seconds
    per layer and the snapshot op's cost."""
    spent = dict.fromkeys(LAYERS, 0.0)
    service = server_module.PlacementService(
        graph, config=config(),
        snapshot_dir=tempfile.mkdtemp(dir=workdir), wal_fsync=False)
    append = service._wal.append_batch

    def timed_append(entries) -> None:
        t0 = _now()
        append(entries)
        spent["WAL append"] += _now() - t0

    def timed_decode(line: bytes) -> dict:
        t0 = _now()
        obj = decode_line(line)
        spent["decode"] += _now() - t0
        return obj

    service._wal.append_batch = timed_append
    server_module.decode_line = timed_decode
    handled = 0.0
    try:
        for number, fields in enumerate(requests, start=1):
            message = {"protocol": PROTOCOL_VERSION, "id": number, **fields}
            t0 = _now()
            line = encode_message(message)
            t1 = _now()
            _op, response = service._handle_line(line)
            t2 = _now()
            payload = encode_message(response)
            t3 = _now()
            reply = decode_line(payload)
            t4 = _now()
            if not reply.get("ok"):
                raise RuntimeError(f"{fields['op']} failed: {reply}")
            spent["client enc"] += t1 - t0
            handled += t2 - t1
            spent["encode"] += t3 - t2
            spent["client dec"] += t4 - t3
        spent["kernel"] = service.stats()["engine_seconds"]
        server_module.decode_line = decode_line  # not in the layer times
        snap = snapshot_cost(service)
    finally:
        server_module.decode_line = decode_line
        service.close()
    if not (spent["decode"] and spent["WAL append"]):
        raise RuntimeError("server.py no longer calls decode_line or "
                           "_wal.append_batch by the names patched here")
    spent["bookkeeping"] = (handled - spent["decode"] - spent["kernel"]
                            - spent["WAL append"])
    return spent, snap


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        path = workdir / "graph.adj"
        write_adjacency(community_web_graph(NUM_VERTICES, seed=GRAPH_SEED),
                        path)
        load_or_parse(path, cache=True)  # the miss writes the sidecar
        graph = load_or_parse(path, cache=True)
        workloads = {"serve-batch": (serve_batch_requests(), NUM_VERTICES),
                     "serve-mixed": (serve_mixed_requests(), MIXED_PLACES)}
        print(f"in-process serving budget: |V| = {NUM_VERTICES}, K = {K}, "
              f"no fsync, best of {ROUNDS} rounds; µs per placement")
        header = "".join(f"{name:>13}" for name in LAYERS)
        print(f"{'workload':<13}{header}{'server÷kernel':>15}")
        snapshots, served = {}, {}
        for name, (requests, placements) in workloads.items():
            passes = [one_pass(graph, requests, workdir)
                      for _ in range(ROUNDS)]
            best = min((spent for spent, _ in passes),
                       key=lambda spent: sum(spent.values()))
            row = "".join(f"{best[layer] / placements * 1e6:>13.2f}"
                          for layer in LAYERS)
            outside = (best["decode"] + best["bookkeeping"]
                       + best["WAL append"] + best["encode"])
            print(f"{name:<13}{row}{outside / best['kernel']:>15.2f}")
            served[name] = best["kernel"] / placements * 1e6
            snapshots[name] = {
                key: min(snap[key] for _, snap in passes)
                for key in ("ms", "peak_mib", "bytes")}
        copy = DiGraph(np.array(graph.indptr), np.array(graph.indices))
        print(f"\nreference: partition() kernel "
              f"{in_process_kernel_us(graph):.2f} µs/record over the loaded "
              f"graph, {in_process_kernel_us(copy):.2f} over an in-memory "
              "copy; served kernel " + ", ".join(
                  f"{us:.2f} ({name})" for name, us in served.items()))
        print(f"loaded CSR aligned: indptr {graph.indptr.flags.aligned}, "
              f"indices {graph.indices.flags.aligned}")
        print(f"\n{'snapshot op':<13}{'ms':>13}{'peak MiB':>13}"
              f"{'bytes':>13}")
        for name, snap in snapshots.items():
            print(f"{name:<13}{snap['ms']:>13.2f}{snap['peak_mib']:>13.2f}"
                  f"{snap['bytes']:>13}")


if __name__ == "__main__":
    main()
