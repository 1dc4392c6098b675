"""The two server workloads: a fresh placement server child per pass."""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.recovery.snapshot import read_snapshot

from . import spec
from .calibration import NOMINAL_S, calibrate, slowdowns
from .checks import check_route
from .client import BenchClient
from .inputs import Inputs
from .procs import Children, vm_hwm_mib
from .tracing import ROOT_SPAN, Tracer
from .workloads import PassResult, Workload

__all__ = ["ServeBatch", "ServeMixed"]

_now = time.perf_counter

#: K = 32 and the dense Gamma store, as the batch-file workload; the
#: rest are the CLI's defaults.  ``--no-fsync``: the WAL lives inside
#: the checkout, on whatever device that is, and a device fsync (0.14 ms
#: at best, 1.2 ms at p90 on the development host) would put the
#: device's latency, not the code's, into every ``place``.  The write
#: and flush of every group still happen; the device's own cost is the
#: per-layer metric ``wal.fsync_disk_ms`` (README.md).
SERVER_FLAGS = ["-k", str(spec.NUM_PARTITIONS), "--shards", "1",
                "--no-fsync"]


class ServeWorkload(Workload):
    """A fresh ``python -m repro serve`` child per pass, one connection,
    one request in flight; a slice is a request's round trip.  After
    every ``spec.CALIBRATE_EVERY`` requests, while the server is idle,
    the client times the calibration loop."""

    #: Index of every ``place``/``place_batch`` slice (latency_p50_ms).
    place_positions: np.ndarray

    def requests(self) -> list[tuple[str, dict[str, Any]]]:
        raise NotImplementedError

    def latency_ms(self, position: np.ndarray, total: float) -> float:
        return float(np.median(position[self.place_positions])) * 1e3

    def absorb(self, op: str, fields: dict[str, Any],
               response: dict[str, Any], route: np.ndarray) -> int:
        """Fold one ``ok`` response into ``route``; returns how many
        operations of the request failed their check."""
        raise NotImplementedError

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        state_dir = Path(tempfile.mkdtemp(prefix="state-",
                                          dir=self.inputs.workdir))
        before = calibrate(spec.STAGE_ROUNDS)
        server = self.children.start_server(
            self.inputs.adjacency_path, state_dir / "durable",
            state_dir / "server.log", SERVER_FLAGS)
        try:
            with BenchClient(server.host, server.port) as client:
                hello = client.request("hello")
                boot_s = _now() - server.spawned_at
                after = calibrate(spec.STAGE_ROUNDS)
                result = self._drive(client, tracer)
                result.boot_s = boot_s / ((before + after) / 2.0 / NOMINAL_S)
                health = [client.call(client.message("health"))[1]
                          for _ in range(50)]
                result.rtt_floor_s = min(health)
                result.stats = client.request("stats")
                # What a round trip costs outside the server: a trivial
                # op's round trip minus the server's own time on it.
                result.client_share_s = statistics.median(health) \
                    - result.stats["latency"]["health"]["p50_ms"] / 1e3
                self._check_server(client, hello, result)
            result.rss_mib = vm_hwm_mib(server.proc.pid)
        finally:
            code = self.children.stop(server.proc)
            shutil.rmtree(state_dir, ignore_errors=True)
        if code != 0:
            result.problems.append(f"server exited with code {code}")
        return result

    def _drive(self, client: BenchClient,
               tracer: Tracer | None) -> PassResult:
        route = np.full(self.n, -1, dtype=np.int32)
        slices: list[float] = []
        attempted = failed = 0
        requests = [(op, fields, client.message(op, **fields))
                    for op, fields in self.requests()]
        every = spec.CALIBRATE_EVERY[self.name]
        per_gap = [min(every, len(requests) - lo)
                   for lo in range(0, len(requests), every)]
        responses = []
        readings = []
        if tracer is None:
            readings.append(calibrate())
            for index, (_, _, message) in enumerate(requests, start=1):
                response, seconds = client.call(message)
                slices.append(seconds)
                responses.append(response)
                if index % every == 0 or index == len(requests):
                    readings.append(calibrate())
        else:
            with tracer.span(ROOT_SPAN, None) as root:
                def reading() -> None:
                    with tracer.span("host.calibrate", root):
                        readings.append(calibrate())

                reading()
                for index, (op, _, message) in enumerate(requests, start=1):
                    response, (t0, t1, t2, t3) = client.call_stamped(message)
                    call = tracer.add(f"client.{op}", t0, t3, root)
                    tracer.add("protocol.encode_message", t0, t1, call)
                    tracer.add("transport+server", t1, t2, call)
                    tracer.add("protocol.decode_line", t2, t3, call)
                    slices.append(t3 - t0)
                    responses.append(response)
                    if index % every == 0 or index == len(requests):
                        reading()
        for (op, fields, message), response in zip(requests, responses):
            count = len(fields["items"]) if op == "place_batch" else 1
            attempted += count
            if not response.get("ok") or response.get("id") != message["id"]:
                failed += count  # refused or failed: every item missed
            else:
                failed += self.absorb(op, fields, response, route)
        return PassResult(slices, slowdowns(readings, per_gap), route,
                          attempted, failed, wall_s=sum(slices),
                          sample=(requests[0][2], responses[0]))

    def _check_server(self, client: BenchClient, hello: dict[str, Any],
                      result: PassResult) -> None:
        placed = int(np.count_nonzero(result.route >= 0))
        result.problems += check_route(self.inputs.graph, result.route,
                                       expect_placed=placed)
        if hello["config"].get("num_shards") != 1:
            result.problems.append("server is not on the dense Gamma store")
        stats = result.stats
        if stats["placements"] != placed or sum(stats["loads"]) != placed:
            result.problems.append(
                f"server counts {stats['placements']} placements, "
                f"sum(loads)={sum(stats['loads'])}, replies gave {placed}")
        if not np.array_equal(result.route[:placed],
                              self.inputs.reference_route[:placed]):
            result.problems.append(
                "served route differs from the batch route (identity "
                "contract of id-ordered placement)")
        # What the server made durable must be what it acked.
        snap, result.snapshot_s = client.call(client.message("snapshot"))
        if not snap.get("ok"):
            result.problems.append(f"snapshot op failed: {snap}")
            return
        result.snapshot_bytes = Path(snap["path"]).stat().st_size
        durable = read_snapshot(snap["path"])["partition_state"]["route"]
        if not np.array_equal(durable, result.route):
            result.problems.append("snapshot route differs from the acks")


class ServeBatch(ServeWorkload):
    name = "serve-batch"

    def __init__(self, inputs: Inputs, children: Children) -> None:
        super().__init__(inputs, children)
        self.records = self.n
        self._batches = [list(range(lo, min(lo + spec.BATCH_SIZE, self.n)))
                         for lo in range(0, self.n, spec.BATCH_SIZE)]
        self.place_positions = np.arange(len(self._batches))

    def requests(self) -> list[tuple[str, dict[str, Any]]]:
        return [("place_batch", {"items": items})
                for items in self._batches]

    def absorb(self, op, fields, response, route) -> int:
        bad = 0
        for vertex, item in zip(fields["items"], response["results"]):
            if item.get("vertex") != vertex or item.get("cached") \
                    or not isinstance(item.get("pid"), int):
                bad += 1
            else:
                route[vertex] = item["pid"]
        return bad


class ServeMixed(ServeWorkload):
    name = "serve-mixed"

    def __init__(self, inputs: Inputs, children: Children) -> None:
        super().__init__(inputs, children)
        per_place = 1 + spec.MIXED_LOOKUPS_PER_PLACE
        self.records = spec.MIXED_PLACES * per_place
        self.place_positions = np.arange(0, self.records, per_place)

    def requests(self) -> list[tuple[str, dict[str, Any]]]:
        out: list[tuple[str, dict[str, Any]]] = []
        for vertex in range(spec.MIXED_PLACES):
            out.append(("place", {"vertex": vertex}))
            out += [("lookup", {"vertex": int(target)})
                    for target in self.inputs.lookup_targets[vertex]]
        return out

    def absorb(self, op, fields, response, route) -> int:
        vertex = fields["vertex"]
        if op == "place":
            if response.get("cached") or not isinstance(
                    response.get("pid"), int):
                return 1
            route[vertex] = response["pid"]
            return 0
        # A lookup must return the pid the place reply gave.
        return int(response.get("pid") != route[vertex])
