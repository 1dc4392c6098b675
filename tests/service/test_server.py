"""Placement-service integration tests (in-process, ephemeral ports)."""

import hashlib
import importlib.util
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import PartitionConfig, partition_stream
from repro.graph import community_web_graph, write_adjacency
from repro.graph.stream import ArrayStream
from repro.service import (
    BackpressureError,
    PlacementService,
    ServiceClient,
    ServiceError,
)
from repro.ingest.cache import cache_path_for, load_or_parse
from repro.recovery.chaos import FlakyWAL
from repro.resilience.schedule import _crash_stop
from repro.service.protocol import ProtocolError, decode_line, encode_message
from repro.service.wal import (
    PlacementLog,
    replay_entries,
    segment_path,
    wal_segments,
)

K = 8
N = 600

#: sha256 of the WAL an id-ordered ``place_batch``-of-128 run of the
#: module's graph/config writes, recorded before the placement loops
#: were collapsed into one kernel.
ID_ORDERED_WAL_SHA256 = \
    "e012e51c82fcb011857e703b8aa077a2de7908870f7d553d76692b1d53e5b41c"


@pytest.fixture(scope="module")
def graph():
    return community_web_graph(N, avg_degree=8, seed=5)


@pytest.fixture(scope="module")
def config():
    return PartitionConfig(method="spnl", num_partitions=K)


@pytest.fixture(scope="module")
def reference_route(graph, config):
    return partition_stream(graph, config=config).assignment.route


@pytest.fixture
def service(graph, config):
    with PlacementService.start(graph, config=config) as svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(*service.address) as c:
        yield c


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestRoundTrip:
    def test_hello_handshake(self, client, config):
        info = client.server_info
        assert info["protocol"] == 1
        assert info["server"] == "repro-placement-service"
        assert info["partitioner"] == "SPNL"
        assert info["config"]["num_partitions"] == K
        assert info["graph"]["num_vertices"] == N

    def test_id_ordered_stream_matches_batch_pass(
            self, client, service, reference_route):
        for start in range(0, N, 128):
            client.place_batch(list(range(start, min(N, start + 128))))
        assert np.array_equal(service._state.route, reference_route)
        stats = client.stats()
        assert stats["placements"] == N
        assert stats["fast_path"]["fused_placements"] == N
        assert stats["arrival_ordered"] is True

    def test_single_place_and_lookup(self, client):
        res = client.place(0)
        assert res["cached"] is False
        assert client.lookup(0) == res["pid"]

    def test_place_is_idempotent(self, client):
        first = client.place(3)
        again = client.place(3)
        assert again["pid"] == first["pid"]
        assert again["cached"] is True

    def test_lookup_unplaced_is_none(self, client):
        assert client.lookup(N - 1) is None

    def test_explicit_neighbors_place_through_the_kernel(
            self, client, service):
        res = client.place(10, neighbors=[1, 2, 3])
        assert 0 <= res["pid"] < K
        fast = service.stats()["fast_path"]
        assert fast["fused_placements"] == 1
        assert fast["record_placements"] == 0

    def test_out_of_order_arrival_still_places_everything(
            self, client, service):
        order = list(range(N))
        rng = np.random.default_rng(3)
        rng.shuffle(order)
        for start in range(0, N, 200):
            client.place_batch(order[start:start + 200])
        assert client.stats()["placements"] == N
        assert (service._state.route != -1).all()

    def test_stats_shape(self, client):
        client.place(0)
        stats = client.stats()
        for key in ("partitioner", "num_partitions", "position",
                    "placements", "capacity_overflows", "loads",
                    "edge_loads", "queue_depth", "queue_capacity",
                    "groups_processed", "arrival_ordered", "fast_path",
                    "latency", "uptime_seconds"):
            assert key in stats, key
        assert len(stats["loads"]) == K
        assert "place" in stats["latency"]
        assert stats["latency"]["place"]["count"] >= 1
        assert stats["latency"]["place"]["p99_ms"] >= 0.0

    def test_health(self, client):
        health = client.health()
        assert health["status"] == "serving"

    def test_concurrent_clients_place_everything_once(
            self, service, reference_route):
        errors = []

        def worker(lo):
            try:
                with ServiceClient(*service.address) as c:
                    for start in range(lo, N, 4 * 50):
                        c.place_batch(list(range(start, start + 50)),
                                      retries=20)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(lo * 50,))
                   for lo in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = service.stats()
        assert stats["placements"] == N
        assert stats["fast_path"]["fused_placements"] == N
        # Sorted group-commit keeps id-contiguous multi-client traffic
        # equivalent to the batch pass whenever arrival never raced.
        if service._arrival_ordered:
            assert np.array_equal(service._state.route, reference_route)


class UnprunedLog(PlacementLog):
    """A WAL that keeps the segments a snapshot covers."""

    def prune(self, snapshot_position):
        return 0


def _wal_entries(state_dir):
    """Every entry still on disk (segments before the oldest kept
    snapshot are pruned)."""
    oldest = wal_segments(state_dir)[0][0]
    return list(replay_entries(state_dir, from_position=oldest))


def _one_pass_route(graph, config, order, explicit):
    """``partition()`` over the graph in ``order``, with the ``explicit``
    neighbor lists (vertex -> list) standing in for those rows."""
    rows = [graph.out_neighbors(v) for v in range(graph.num_vertices)]
    for vertex, neighbors in explicit.items():
        rows[vertex] = np.asarray(neighbors, dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    stream = ArrayStream(indptr, np.concatenate(rows), order=order)
    route = config.make().partition(stream).assignment.route
    # ... and as the reference implementation places them one by one.
    reference = config.make()
    state = reference.make_state(stream)
    reference._setup(stream, state)
    for record in stream:
        reference.place(record, state)
    assert np.array_equal(route, state.route)
    return route


class TestEverythingPlacesThroughTheKernel:
    """Out-of-order ids, explicit neighbors, cached duplicates and
    concurrent clients all take the kernel step, in arrival order."""

    def _check(self, graph, config, svc, state_dir):
        stats = svc.stats()
        assert stats["placements"] == N
        fast = stats["fast_path"]
        assert fast["active"] is True
        assert fast["fused_placements"] == stats["placements"]
        assert fast["record_placements"] == 0
        entries = _wal_entries(state_dir)
        assert [e.seq for e in entries] == list(range(N))
        # The route is what one pass in the acked (WAL) order gives.
        explicit = {e.vertex: e.neighbors for e in entries
                    if e.neighbors is not None}
        assert np.array_equal(
            svc._state.route,
            _one_pass_route(graph, config, [e.vertex for e in entries],
                            explicit))

    def test_out_of_band_requests_then_the_rest(self, graph, config,
                                                tmp_path):
        state_dir = tmp_path / "state"
        # The explicit list is longer than any row of the graph: degree
        # indexed buffers must grow, not overrun.
        long_row = list(range(100, 100 + graph.max_out_degree() + 7))
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir) as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(0, 64)))
                c.place(400)                          # out of order
                c.place(450, neighbors=[0, 1, 2])     # explicit row
                c.place(451, neighbors=long_row)
                assert c.place(400)["cached"] is True  # duplicate
                c.place_batch([300, 5, 301, 400, 302])
                rest = [v for v in range(N)
                        if svc._state.route[v] == -1]
                for start in range(0, len(rest), 100):
                    c.place_batch(rest[start:start + 100])
            assert svc.stats()["arrival_ordered"] is False
            self._check(graph, config, svc, state_dir)

    # A snapshot due after every placing group makes each durable
    # place group commit inside the state lock, as one carrying a
    # snapshot does; the log keeps every segment so the whole WAL is
    # checked.
    @pytest.mark.parametrize("snapshot_every", [100_000, 1],
                             ids=["pipelined", "in-lock"])
    def test_four_concurrent_clients(self, graph, config, tmp_path,
                                     snapshot_every):
        state_dir = tmp_path / "state"
        errors = []
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    snapshot_every=snapshot_every,
                                    wal_factory=UnprunedLog) as svc:
            def worker(lo):
                try:
                    with ServiceClient(*svc.address) as c:
                        for start in range(lo, N, 4 * 25):
                            c.place_batch(list(range(start, start + 25)),
                                          retries=20)
                            c.place(start)  # cached duplicate
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(lo * 25,))
                       for lo in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            self._check(graph, config, svc, state_dir)

    def test_id_ordered_wal_bytes_are_unchanged(self, graph, config,
                                                tmp_path):
        state_dir = tmp_path / "state"
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir) as svc:
            with ServiceClient(*svc.address) as c:
                for start in range(0, N, 128):
                    c.place_batch(list(range(start, min(N, start + 128))))
            blob = b"".join(p.read_bytes()
                            for p in sorted(state_dir.glob("wal-*")))
        assert hashlib.sha256(blob).hexdigest() == ID_ORDERED_WAL_SHA256


class TestServeFromGraphCache:
    """The benchmark's configuration, ``serve --graph-cache``: the graph
    comes out of the CSR sidecar, whose arrays are read-only views with
    explicit byte-order buffer formats (``memoryview`` cannot index
    them), not the parser's own arrays."""

    def test_place_in_id_order_then_restart_and_lookup(
            self, graph, config, reference_route, tmp_path):
        path = tmp_path / "g.adj"
        write_adjacency(graph, path)
        load_or_parse(path, cache=True)  # the miss writes the sidecar
        assert cache_path_for(path).is_file()
        cached = load_or_parse(path, cache=True)
        state_dir = tmp_path / "state"
        route = np.full(N, -1)
        svc = PlacementService.start(cached, config=config,
                                     snapshot_dir=state_dir)
        with ServiceClient(*svc.address) as c:
            for start in range(0, N, 64):
                if start == N // 2:
                    c.snapshot()  # the restart restores it, then replays
                for res in c.place_batch(
                        list(range(start, min(N, start + 64)))):
                    assert not res["cached"]
                    route[res["vertex"]] = res["pid"]
        svc._listener.close()  # crash: the WAL holds the second half
        np.testing.assert_array_equal(route, reference_route)

        with PlacementService.start(cached, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                assert c.stats()["position"] == N
                assert [c.lookup(v) for v in range(N)] == route.tolist()


class TestProtocolErrors:
    def _raw(self, service, message: dict) -> dict:
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(encode_message(message))
            return decode_line(sock.makefile("rb").readline())

    def test_unsupported_protocol_version(self, service):
        response = self._raw(service, {"protocol": 99, "op": "hello",
                                       "id": 1})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-protocol"
        assert response["error"]["supported"] == [1]

    def test_unknown_op(self, service):
        response = self._raw(service, {"protocol": 1, "op": "explode",
                                       "id": 1})
        assert response["error"]["code"] == "bad-request"

    def test_unknown_fields_are_ignored(self, service):
        # The additive-evolution rule, end to end.
        response = self._raw(service, {"protocol": 1, "op": "health",
                                       "id": 1, "future_field": True})
        assert response["ok"] is True

    def test_unknown_vertex(self, client):
        with pytest.raises(ServiceError) as exc:
            client.lookup(N + 5)
        assert exc.value.code == "unknown-vertex"

    def test_bool_vertex_is_rejected(self, client):
        with pytest.raises(ServiceError) as exc:
            client.place(True)
        assert exc.value.code == "bad-request"

    def test_bad_neighbors_type(self, client):
        with pytest.raises(ServiceError) as exc:
            client.request("place", vertex=0, neighbors="nope")
        assert exc.value.code == "bad-request"

    def test_snapshot_on_volatile_server_fails_cleanly(self, client):
        with pytest.raises(ServiceError) as exc:
            client.snapshot()
        assert "snapshot" in str(exc.value)


class TestBackpressure:
    def test_queue_full_answers_backpressure(self, graph, config):
        with PlacementService.start(
                graph, config=config, queue_depth=1,
                throttle_seconds=0.08) as svc:
            hits, errors = [], []

            def worker(v):
                try:
                    with ServiceClient(*svc.address) as c:
                        c.place(v)
                except BackpressureError as exc:
                    hits.append(exc.retry_after_ms)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(v,))
                       for v in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert hits, "expected at least one backpressure rejection"
            assert all(ms >= 1 for ms in hits)

    def test_retries_absorb_backpressure(self, graph, config):
        with PlacementService.start(
                graph, config=config, queue_depth=1,
                throttle_seconds=0.02) as svc:
            errors = []

            def worker(lo):
                try:
                    with ServiceClient(*svc.address) as c:
                        c.place_batch(list(range(lo, lo + 40)),
                                      retries=100)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(lo * 40,))
                       for lo in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert svc.stats()["placements"] == 160


class TestLifecycle:
    def test_close_is_idempotent_and_drains(self, graph, config):
        svc = PlacementService.start(graph, config=config)
        with ServiceClient(*svc.address) as c:
            c.place_batch(list(range(100)))
        svc.close()
        svc.close()
        assert svc.stats()["placements"] == 100

    def test_close_answers_queued_work_and_strands_no_submitter(
            self, graph, config, tmp_path):
        # The first request holds the state lock through a one-second
        # throttled group; three more queue behind it; close() lands
        # meanwhile.  The group in hand is acked, the queue is answered
        # draining, and every submitter returns.
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=tmp_path / "state",
                                     throttle_seconds=1.0)
        answers = {}

        def submit(vertex):
            try:
                svc._op_place([vertex])
                answers[vertex] = "ok"
            except ProtocolError as exc:
                answers[vertex] = exc.code

        threads = [threading.Thread(target=submit, args=(v,), daemon=True)
                   for v in range(4)]
        threads[0].start()
        _wait_for(svc._state_lock.locked)
        for thread in threads[1:]:
            thread.start()
        _wait_for(lambda: svc.stats()["queue_depth"] == 3)
        svc.close()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == {0: "ok", 1: "draining", 2: "draining",
                           3: "draining"}
        assert svc.stats()["placements"] == 1

    def test_requests_after_drain_fail(self, graph, config):
        svc = PlacementService.start(graph, config=config)
        host, port = svc.address
        svc.close()
        with pytest.raises((ServiceError, OSError)):
            ServiceClient(host, port).place(0)

    def test_request_shutdown_wakes_wait(self, graph, config):
        svc = PlacementService.start(graph, config=config)
        try:
            assert svc.wait(0.01) is False
            svc.request_shutdown()
            assert svc.wait(5) is True
        finally:
            svc.close()

    def test_offline_method_is_rejected(self, graph):
        with pytest.raises(ValueError, match="streaming"):
            PlacementService(graph, config=PartitionConfig(
                method="metis", num_partitions=K))


class TestDurability:
    def test_snapshot_op_and_boot_guard(self, graph, config, tmp_path):
        state_dir = tmp_path / "state"
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir) as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(200)))
                snap = c.snapshot()
            assert snap["position"] == 200
            assert (state_dir / snap["path"].split("/")[-1]).exists()
        # Fresh boot into the now-dirty directory must refuse.
        with pytest.raises(ValueError, match="resume_from"):
            PlacementService(graph, config=config,
                             snapshot_dir=state_dir)

    def test_simulated_crash_resume_answers_acked_lookups(
            self, graph, config, tmp_path):
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir,
                                     snapshot_every=150)
        acked = {}
        with ServiceClient(*svc.address) as c:
            for res in c.place_batch(list(range(0, 300))):
                acked[res["vertex"]] = res["pid"]
            # A few out-of-order + explicit-neighbor placements too.
            res = c.place(450, neighbors=[0, 1, 2])
            acked[450] = res["pid"]
            res = c.place(400)
            acked[400] = res["pid"]
        # Simulated SIGKILL: no close(), no final snapshot — only what
        # the WAL and periodic snapshots made durable survives.
        svc._listener.close()

        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                stats = c.stats()
                assert stats["position"] == len(acked)
                assert "resumed_from" in stats
                for vertex, pid in acked.items():
                    assert c.lookup(vertex) == pid, vertex

    def test_resume_continues_fused_after_ordered_history(
            self, graph, config, tmp_path):
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir)
        with ServiceClient(*svc.address) as c:
            c.place_batch(list(range(0, 256)))
        svc._listener.close()  # crash

        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                c.place_batch(list(range(256, N)))
                stats = c.stats()
            assert stats["placements"] == N
            assert stats["fast_path"]["active"] is True
            assert stats["fast_path"]["fused_placements"] == N - 256

    def test_resume_after_non_prefix_history_keeps_the_kernel(
            self, graph, config, tmp_path):
        """Snapshot + WAL tail of an out-of-order, explicit-neighbor
        history: the revived server builds its kernel from the replayed
        state and finishes exactly as an uninterrupted pass would."""
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir,
                                     snapshot_every=100)
        with ServiceClient(*svc.address) as c:
            c.place_batch(list(range(200, 330)))       # past a snapshot
            c.place(7, neighbors=[200, 201, 202, 203])
            c.place_batch([500, 3, 499])
        placed_before = int(svc._state.placed_vertices)
        svc._listener.close()  # crash: snapshot at >= 100 + WAL tail

        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            assert revived._replayed > 0
            with ServiceClient(*revived.address) as c:
                rest = [v for v in range(N)
                        if revived._state.route[v] == -1]
                c.place_batch(rest)
                stats = c.stats()
            assert stats["placements"] == N
            assert stats["fast_path"]["active"] is True
            assert stats["fast_path"]["fused_placements"] == \
                N - placed_before
            entries = _wal_entries(state_dir)
            route = revived._state.route.copy()
        # The log only reaches back to the last snapshot; the acked order
        # before it is what the first server was sent.
        history = list(range(200, 330)) + [7, 500, 3, 499] + rest
        assert [e.vertex for e in entries] == \
            history[-len(entries):]
        assert np.array_equal(route, _one_pass_route(
            graph, config, history, {7: [200, 201, 202, 203]}))


class _BaseCheckingLog(FlakyWAL):
    """A WAL that records every line appended below the base of the
    segment receiving it, and every placement it made durable.  Each
    append first sleeps a millisecond, as on a slow disk, which widens
    the window in which a snapshot could overtake a commit."""

    def __init__(self, directory, *, start=0, fsync=True):
        self.below_base = []
        self.durable = {}
        super().__init__(directory, start=start, fsync=fsync)

    def rotate(self, base):
        self.base = base
        return super().rotate(base)

    def append_batch(self, entries):
        time.sleep(0.001)
        super().append_batch(entries)
        self.below_base += [e.seq for e in entries if e.seq < self.base]
        self.durable.update((e.vertex, e.pid) for e in entries)


def _mixed_client(address, vertices, acked):
    """Place ``vertices`` in chunks of six — a batch, six singles, a
    batch of explicit neighbor lists, in turn — recording every ack in
    ``acked``; returns at the first refusal."""
    try:
        with ServiceClient(*address) as c:
            for i in range(0, len(vertices), 6):
                chunk = vertices[i:i + 6]
                if i // 6 % 3 == 1:
                    for v in chunk:
                        acked[v] = c.place(v, retries=20)["pid"]
                    continue
                items = chunk if i // 6 % 3 == 0 else [
                    {"vertex": v,
                     "neighbors": [(7 * v + j) % N for j in range(5)]}
                    for v in chunk]
                for r in c.place_batch(items, retries=20):
                    acked[r["vertex"]] = r["pid"]
    except (ServiceError, OSError):
        pass


class TestSnapshotsWaitForTheirCommits:
    """A periodic snapshot rotates the WAL.  It must run only after every
    group applied in front of it is appended: otherwise lines below the
    new segment's base land in it, and the snapshot holds placements
    nobody acked."""

    def test_concurrent_mixed_traffic_then_crash(self, graph, config,
                                                 tmp_path):
        state_dir = tmp_path / "state"
        logs = []

        def factory(directory, *, start=0, fsync=True):
            logs.append(_BaseCheckingLog(directory, start=start,
                                         fsync=fsync))
            return logs[-1]

        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir,
                                     snapshot_every=7, wal_fsync=False,
                                     wal_factory=factory)
        [log] = logs
        address = svc.address

        def traffic(vertices):
            chunks = [vertices[i:i + 6] for i in range(0, len(vertices), 6)]
            acked = [{} for _ in range(4)]
            threads = [threading.Thread(
                target=_mixed_client, daemon=True,
                args=(address, [v for c in chunks[w::4] for v in c],
                      acked[w]))
                for w in range(4)]
            for thread in threads:
                thread.start()
            return threads, acked

        half = N // 2
        try:
            threads, acked = traffic(list(range(half)))
            for thread in threads:
                thread.join(timeout=60)
            first = {v: p for part in acked for v, p in part.items()}
            assert len(first) == half
            stats = svc.stats()
            assert stats["durability"]["wal_appended"] \
                == stats["position"] == stats["placements"] == half
            assert stats["durability"]["snapshots_written"] >= 5

            # Crash while the second half is in flight.
            threads, acked = traffic(list(range(half, N)))
            _wait_for(lambda: sum(map(len, acked)) >= 60
                      or not any(t.is_alive() for t in threads))
            _crash_stop(svc, log)
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            svc.close()
        assert log.below_base == []
        acked = first | {v: p for part in acked for v, p in part.items()}

        with PlacementService.start(graph, config=config,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                for vertex, pid in acked.items():
                    assert c.lookup(vertex) == pid, vertex
            served = {v: int(p) for v, p in enumerate(revived._state.route)
                      if p != -1}
        # Nothing is served that never reached the log.
        assert served == log.durable


class TestFailedRequestKeepsItsCommits:
    """A ``place_batch`` whose k-th item raises: items 0..k-1 are
    committed in memory, so they must reach the log and the read view
    although the request itself fails — a retry answers them ``cached``,
    and that ack has to be backed by an fsynced line."""

    def test_committed_prefix_is_logged_published_and_resumed(
            self, graph, tmp_path):
        # Edge balance, K=2, strict overflow: two 4000-edge rows fill
        # both partitions (capacity 2649 edges), the third item raises.
        config = PartitionConfig(method="spnl", num_partitions=2,
                                 balance="edge", overflow="strict")
        row = [(7 * i) % N for i in range(4000)]
        items = [{"vertex": v, "neighbors": row} for v in range(6)]
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir)
        with ServiceClient(*svc.address) as c:
            with pytest.raises(ServiceError) as err:
                c.place_batch(items)
            assert err.value.code == "internal"
            committed = [v for v in range(6) if svc._state.route[v] != -1]
            assert committed == [0, 1]
            # The retry rides the same commit queue as the failed
            # request's lines, so its ack also orders them before the
            # reads below.
            retry = c.place_batch(items[:2])
            assert [r["cached"] for r in retry] == [True, True]
            stats = c.stats()
            assert stats["durability"]["wal_appended"] \
                == stats["position"] == stats["placements"] == 2
            assert stats["durability"]["wal_pending"] == 0
            assert stats["health"]["health_state"] == "healthy"
            entries = _wal_entries(state_dir)
            assert [e.vertex for e in entries] == committed
            for entry, result in zip(entries, retry):
                assert c.lookup(entry.vertex) == entry.pid == result["pid"]
            # No line, no cached ack: the item that raised raises again.
            with pytest.raises(ServiceError) as err:
                c.place_batch(items[2:3])
            assert err.value.code == "internal"
            assert c.lookup(2) is None
        with ServiceClient(*svc.address) as other:
            assert other.place(0)["cached"] is True
            assert other.stats()["position"] == 2
        route = svc._state.route.copy()
        svc._listener.close()  # crash: no drain, no final snapshot

        revived = PlacementService(graph, config=config,
                                   resume_from=state_dir)
        try:
            assert revived._position == 2
            assert np.array_equal(revived._state.route, route)
        finally:
            revived.close()


class TestEngineError:
    """An error that escapes the apply loop reaches only the thread that
    drained the group.  Every request of the group must still be
    answered ``internal`` exactly once, no submitter may be left
    blocked, and the server drops to ``read_only`` and keeps reading."""

    def test_group_fails_once_and_degrades(self, graph, config, tmp_path):
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=tmp_path / "state")
        kernel = svc._kernel

        class FaultyKernel:
            # Raises for vertex 2, which the apply loop answers itself.
            def commit(self, vertex, neighbors, scores=None):
                if vertex == 2:
                    raise RuntimeError("planted kernel fault")
                return kernel.commit(vertex, neighbors, scores)

        def failing_capture():
            # Vertex 1 committed; then the group's commit capture fails.
            raise RuntimeError("planted engine fault")

        answers = {1: [], 2: []}

        def submit(vertex):
            try:
                svc._op_place([vertex])
                answers[vertex].append("ok")
            except ProtocolError as exc:
                answers[vertex].append((exc.code, str(exc)))
            except Exception as exc:  # e.g. a second release of a latch
                answers[vertex].append(repr(exc))

        threads = [threading.Thread(target=submit, args=(v,), daemon=True)
                   for v in (2, 1)]
        try:
            with svc._state_lock:  # both requests queue for one group
                for thread in threads:
                    thread.start()
                _wait_for(lambda: svc.stats()["queue_depth"] == 2)
                svc._kernel = FaultyKernel()
                svc._ack_scalars = failing_capture
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert answers == {
                1: [("internal", "engine error: planted engine fault")],
                2: [("internal", "placement failed: planted kernel fault")],
            }
            assert svc.health_state == "read_only"
            with ServiceClient(*svc.address) as c:
                # Nothing of the group was acked, so nothing is visible.
                assert c.lookup(1) is None and c.lookup(2) is None
                assert c.health()["health_state"] == "read_only"
                with pytest.raises(ServiceError) as err:
                    c.place(3)
                assert err.value.code == "read_only"
        finally:
            svc.close()


    def test_committed_placement_is_logged_before_healthy(
            self, graph, config, tmp_path):
        """An engine error after the apply loop committed a placement in
        memory: the request fails ``internal``, recovery flushes the
        placement's WAL line before the server is healthy again, the
        retry's ``cached`` ack is backed by it, and a server revived
        from the directory answers the same pid."""
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir)
        capture = svc._ack_scalars
        faults = ["planted engine fault"]

        def failing_once():
            if faults:
                raise RuntimeError(faults.pop())
            return capture()

        svc._ack_scalars = failing_once
        try:
            with pytest.raises(ProtocolError) as err:
                svc._op_place([1])
            assert err.value.code == "internal"
            assert svc.health_state == "read_only"
            assert svc.stats()["durability"]["wal_pending"] == 1
            recovered = svc.try_recover()
            assert recovered["recovered"] and recovered["flushed"] == 1
            [entry] = replay_entries(state_dir)
            assert (entry.seq, entry.vertex) == (0, 1)
            with ServiceClient(*svc.address) as c:
                assert c.lookup(1) == entry.pid
                retry = c.place(1)
                assert (retry["pid"], retry["cached"]) == (entry.pid, True)
            assert len(list(replay_entries(state_dir))) == 1
        finally:
            svc._listener.close()  # crash: no final snapshot
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                assert c.lookup(1) == entry.pid


    def test_fault_after_the_commit_lock_releases_it(
            self, graph, config, tmp_path):
        """The same fault after the group took the commit lock for a
        pipelined commit: the lock is released (recovery would block on
        it otherwise) and the placement is parked, then flushed."""
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=tmp_path / "state")
        observe = svc._admission.observe_group
        faults = ["planted engine fault"]

        def failing_once(elapsed, placements):
            if faults:
                raise RuntimeError(faults.pop())
            return observe(elapsed, placements)

        svc._admission.observe_group = failing_once
        outcome = []
        recover = threading.Thread(
            target=lambda: outcome.append(svc.try_recover()), daemon=True)
        try:
            with pytest.raises(ProtocolError) as err:
                svc._op_place([1])
            assert err.value.code == "internal"
            recover.start()
            recover.join(timeout=10)
            assert not recover.is_alive(), "commit lock left held"
            assert outcome[0]["flushed"] == 1
            assert svc.health_state == "healthy"
        finally:
            if recover.is_alive():
                svc._listener.close()  # close() would block on the lock
            else:
                svc.close()


class TestFacade:
    def test_serve_connect_compose(self, graph, config):
        with repro.serve(graph, config) as service, \
                repro.connect(service) as client:
            pid = client.place(0)["pid"]
            assert client.lookup(0) == pid
            assert client.server_info["protocol"] == 1


class TestResilience:
    """Revision 1.1 surface: deadlines, degraded modes, recovery."""

    def test_hello_advertises_the_revision(self, client):
        assert client.server_info["revision"] == "1.2"

    def test_health_reports_state_and_shed_rate(self, client):
        health = client.health()
        assert health["health_state"] == "healthy"
        assert health["shed_rate"] == 0.0
        assert health["health_transitions"] == 0

    def test_stats_report_admission_and_health(self, client):
        client.place_batch(list(range(32)))
        stats = client.stats()
        assert stats["health"]["health_state"] == "healthy"
        assert stats["admission"]["accepted"] >= 1
        assert stats["admission"]["shed_rate"] == 0.0
        assert stats["deadline_expired_in_queue"] == 0
        assert "durability" not in stats  # volatile server

    def test_durable_stats_report_pending_wal(self, graph, config,
                                              tmp_path):
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=tmp_path / "s") as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(16)))
                stats = c.stats()
        assert stats["durability"]["wal_pending"] == 0
        assert stats["durability"]["snapshot_failures"] == 0

    def test_generous_deadline_is_met(self, client):
        result = client.place(0, deadline_ms=10_000)
        assert "pid" in result

    def test_hopeless_deadline_is_shed_with_the_typed_error(
            self, graph, config):
        from repro.service import DeadlineExceededError

        # A throttled engine + warmed EWMA makes the expected wait
        # provably exceed a 1 ms budget at admission time.
        with PlacementService.start(graph, config=config,
                                    throttle_seconds=0.05) as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(64)))  # warm the lag EWMA
                with pytest.raises(DeadlineExceededError):
                    for v in range(64, N):
                        c.place(v, deadline_ms=0.001)

    def test_invalid_deadline_is_a_bad_request(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("place", vertex=0, deadline_ms=-5)
        assert info.value.code == "bad-request"

    def test_wal_outage_degrades_to_read_only_and_recovers(
            self, graph, config, tmp_path):
        from repro.service import ReadOnlyError

        holder, factory = _flaky_wal_factory()
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=tmp_path / "state",
                                    wal_factory=factory) as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(32)))
                holder["wal"].fail()
                with pytest.raises(ReadOnlyError):
                    c.place(32)
                assert svc.health_state == "read_only"
                # The read path keeps serving while degraded.
                assert c.lookup(0) is not None
                # Recovery while the disk is still broken fails safe.
                assert svc.try_recover()["recovered"] is False
                holder["wal"].restore()
                recovery = svc.try_recover()
                assert recovery["recovered"] is True
                assert svc.health_state == "healthy"
                c.place(32)  # mutations flow again

    def test_recovery_probe_heals_a_restored_wal(self, graph, config,
                                                  tmp_path):
        """Nobody calls ``try_recover``: with ``recovery_probe_interval``
        set, the probe thread flushes the parked entries once the disk
        is back, and it stops with the server."""
        from repro.service import ReadOnlyError

        holder, factory = _flaky_wal_factory()
        before = set(threading.enumerate())
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=tmp_path / "state",
                                     wal_factory=factory,
                                     recovery_probe_interval=0.01)
        probes = [t for t in threading.enumerate() if t not in before
                  and t.name == "placement-recovery-probe"]
        try:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(32)))
                holder["wal"].fail()
                with pytest.raises(ReadOnlyError):
                    c.place_batch(list(range(32, 64)))
                assert svc.health_state == "read_only"
                assert c.stats()["durability"]["wal_pending"] == 32
                holder["wal"].restore()

                def healed():
                    stats = c.stats()
                    durability = stats["durability"]
                    return (c.health()["health_state"] == "healthy"
                            and durability["wal_pending"] == 0
                            and durability["wal_appended"]
                            == stats["placements"])

                _wait_for(healed, timeout=10.0)
                assert c.stats()["placements"] == 64
        finally:
            svc.close()
        assert len(probes) == 1
        probes[0].join(timeout=5.0)
        assert not probes[0].is_alive()

    def test_acked_survive_an_outage_recovery_crash_cycle(
            self, graph, config, tmp_path):
        from repro.service import ReadOnlyError

        holder, factory = _flaky_wal_factory()
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir,
                                     wal_factory=factory)
        acked = {}
        with ServiceClient(*svc.address) as c:
            for r in c.place_batch(list(range(48))):
                acked[r["vertex"]] = r["pid"]
            holder["wal"].fail()
            with pytest.raises(ReadOnlyError):
                c.place_batch(list(range(48, 64)))
            holder["wal"].restore()
            svc.try_recover()
            for r in c.place_batch(list(range(48, 64))):
                acked[r["vertex"]] = r["pid"]
        svc._listener.close()  # crash, no graceful drain

        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    resume_from=state_dir) as revived:
            with ServiceClient(*revived.address) as c:
                for vertex, pid in acked.items():
                    assert c.lookup(vertex) == pid, vertex

    def test_retries_exhausted_is_typed_and_bounded(self, graph, config):
        from repro.service import RetriesExhausted

        # Park the engine inside a 0.6 s throttled group and queue one
        # request behind it: queue_depth 1 puts the watermark at depth
        # 1, so every admission while the queue is occupied sheds.  A
        # 2-retry budget (~100 ms of jittered sleep) exhausts long
        # before the engine drains -- deterministically, no racing.
        with PlacementService.start(graph, config=config, queue_depth=1,
                                    throttle_seconds=0.6) as svc:
            with ServiceClient(*svc.address) as b1, \
                    ServiceClient(*svc.address) as b2, \
                    ServiceClient(*svc.address) as c:
                threads = [
                    threading.Thread(target=b1.place, args=(100,),
                                     daemon=True),
                    threading.Thread(target=b2.place, args=(101,),
                                     daemon=True),
                ]
                threads[0].start()
                time.sleep(0.2)   # engine took it, throttling now
                threads[1].start()
                time.sleep(0.1)   # second request parked in the queue
                with pytest.raises(RetriesExhausted) as info:
                    c.place(102, retries=2)
                assert info.value.attempts == 3
                assert isinstance(info.value.last_error,
                                  BackpressureError)
                for t in threads:
                    t.join(timeout=10)

    def test_circuit_breaker_fails_fast_after_read_only(
            self, graph, config, tmp_path):
        from repro.resilience.policy import (
            CircuitBreaker,
            CircuitOpenError,
        )
        from repro.service import ReadOnlyError

        holder, factory = _flaky_wal_factory()
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=tmp_path / "state",
                                    wal_factory=factory) as svc:
            breaker = CircuitBreaker(failure_threshold=2,
                                     reset_after=30.0)
            with ServiceClient(*svc.address, breaker=breaker) as c:
                holder["wal"].fail()
                for _ in range(2):
                    with pytest.raises(ReadOnlyError):
                        c.place(0)
                # Third call never reaches the wire.
                with pytest.raises(CircuitOpenError):
                    c.place(1)
                assert breaker.trips == 1
                assert breaker.fast_failures >= 1


def _flaky_wal_factory():
    """A ``wal_factory`` building a FlakyWAL, and the holder it fills."""
    from repro.recovery.chaos import FlakyWAL

    holder = {}

    def factory(directory, *, start=0, fsync=True):
        holder["wal"] = FlakyWAL(directory, start=start, fsync=fsync)
        return holder["wal"]

    return holder, factory


class TestAckedOnlyReads:
    """``lookup``/``stats`` serve from a seqlock-versioned view published
    only after a group's WAL fsync, so concurrent readers never observe
    an unacked or torn placement, even while the WAL is failing or the
    writer is held mid-publish."""

    BATCH = 64

    def test_lookup_never_observes_unacked_placements(
            self, graph, config, tmp_path):
        """While the WAL is failing, applied-but-unacked placements
        stay invisible to lookup/stats; recovery (which makes them
        durable) is what publishes them."""
        batch = self.BATCH
        holder, factory = _flaky_wal_factory()
        with PlacementService.start(
                graph, config=config, snapshot_dir=tmp_path / "state",
                wal_factory=factory) as svc:
            with ServiceClient(*svc.address) as client:
                client.place_batch(list(range(0, batch)))
                holder["wal"].fail()
                with pytest.raises(ServiceError) as err:
                    client.place_batch(list(range(batch, 2 * batch)))
                assert err.value.code == "read_only"
                # The engine applied the group in memory...
                assert int(svc._state.route[batch]) >= 0
                # ...but no reader may see it: it was never acked.
                for v in range(batch, 2 * batch):
                    assert client.lookup(v) is None
                stats = client.stats()
                assert stats["placements"] == batch
                assert sum(stats["loads"]) == batch

                holder["wal"].restore()
                assert svc.try_recover()["recovered"] is True
                # Recovery flushed the parked entries to the WAL —
                # now durable, now visible.
                for v in range(batch, 2 * batch):
                    assert client.lookup(v) == int(svc._state.route[v])

    def test_concurrent_lookups_stay_consistent_under_churn(
            self, graph, config):
        """Lookups racing the publish path: an already-acked vertex
        always answers its (immutable) pid, and the stats snapshot is
        never torn — published loads always sum to published
        placements.  ``hold_seconds`` widens the seqlock's odd window
        so the retry path provably runs."""
        batch = self.BATCH
        with PlacementService.start(graph, config=config) as svc:
            with ServiceClient(*svc.address) as writer:
                writer.place_batch(list(range(0, batch)))
                expected = {v: int(svc._state.route[v])
                            for v in range(batch)}
                svc._read_view.hold_seconds = 0.002
                stop = threading.Event()
                failures: list[str] = []

                def reader():
                    try:
                        with ServiceClient(*svc.address) as c:
                            while not stop.is_set():
                                for v in (0, 7, 31, batch - 1):
                                    got = c.lookup(v)
                                    if got != expected[v]:
                                        failures.append(
                                            f"v{v}: {got} != "
                                            f"{expected[v]}")
                                stats = c.stats()
                                if (sum(stats["loads"])
                                        != stats["placements"]):
                                    failures.append(
                                        f"torn stats: {stats['loads']}"
                                        f" vs {stats['placements']}")
                    except Exception as exc:  # surfaced below
                        failures.append(repr(exc))

                thread = threading.Thread(target=reader, daemon=True)
                thread.start()
                try:
                    for start in range(batch, N, 8):
                        writer.place_batch(list(range(start, start + 8)))
                        time.sleep(0.001)
                finally:
                    stop.set()
                    thread.join(10.0)
                svc._read_view.hold_seconds = 0.0
                assert not failures, failures[:5]
                assert svc._read_view.retries > 0

    def test_reads_keep_serving_while_read_only(self, graph, config,
                                                tmp_path):
        batch = self.BATCH
        holder, factory = _flaky_wal_factory()
        with PlacementService.start(
                graph, config=config, snapshot_dir=tmp_path / "state",
                wal_factory=factory) as svc:
            with ServiceClient(*svc.address) as client:
                client.place_batch(list(range(0, batch)))
                holder["wal"].fail()
                with pytest.raises(ServiceError):
                    client.place_batch(list(range(batch, 2 * batch)))
                assert client.health()["health_state"] == "read_only"
                assert client.lookup(0) == int(svc._state.route[0])
                assert client.stats()["placements"] == batch


#: Prefix of a ``python -c`` program: puts ``src`` on the path and logs
#: every module imported from then on, one name per line, to the file
#: named by ``argv[1]`` (a meta-path finder sees each first import only).
_IMPORT_TAP = """\
import sys
sys.path.insert(0, {src!r})
_log = open(sys.argv[1], "a", buffering=1)

class _Tap:
    def find_spec(self, name, path=None, target=None):
        _log.write(name + "\\n")

sys.meta_path.insert(0, _Tap())
"""


def _banned(modules, prefixes, exact=()):
    # A ban on a package that no longer exists would pass vacuously.
    assert [p for p in prefixes if importlib.util.find_spec(p) is None] \
        == []
    return sorted(m for m in modules
                  if m in exact or any(m == p or m.startswith(p + ".")
                                       for p in prefixes))


class TestOneEngine:
    """The server places record by record through ``kernel.commit`` and
    nothing else: no worker pool, no grouped mode, no knob for either."""

    SRC = str(Path(repro.__file__).resolve().parents[1])

    def test_importing_the_service_leaves_the_executor_stack_out(self):
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {self.SRC!r})\n"
            "import repro.service\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "    if m.startswith('repro.parallel')\n"
            "    or m == 'multiprocessing.shared_memory')))\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert json.loads(out) == []

    def test_library_setup_imports_only_the_streaming_kernel(self):
        # What the batch workloads time as setup_s: build SPNL from a
        # config, nothing else.
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {self.SRC!r})\n"
            "from repro import PartitionConfig\n"
            "PartitionConfig(method='spnl', num_partitions=8).make()\n"
            "print(json.dumps(sorted(sys.modules)))\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        modules = json.loads(out)
        assert _banned(modules, [
            f"repro.{p}" for p in ("offline", "edgepart", "bench",
                                   "service", "parallel", "memory",
                                   "recovery")]) == []
        assert len([m for m in modules if m.startswith("repro")]) <= 25

    def test_serve_boot_and_requests_import_only_the_serving_path(
            self, graph, tmp_path):
        # The command the serve workloads time as setup_s, with their
        # flags, run under an import tap up to its address line; then
        # one request of each kind must import nothing more.
        graph_file = tmp_path / "g.adj"
        write_adjacency(graph, graph_file)
        log = tmp_path / "imports.txt"
        code = _IMPORT_TAP.format(src=self.SRC) + (
            "import runpy\n"
            "sys.argv = ['repro', 'serve'] + sys.argv[2:]\n"
            "runpy.run_module('repro', run_name='__main__', "
            "alter_sys=True)\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(log), str(graph_file),
             "-k", str(K), "--shards", "1", "--no-fsync", "--graph-cache",
             "--snapshot-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on "), line
            boot = log.read_text().split()
            host, port = line.split()[-1].rsplit(":", 1)
            with socket.create_connection((host, int(port)),
                                          timeout=30) as sock:
                replies = sock.makefile("rb")
                for rid, (op, fields) in enumerate([
                        ("hello", {}),
                        ("place_batch", {"items": list(range(64))}),
                        ("place", {"vertex": 64}),
                        ("lookup", {"vertex": 3}),
                        ("health", {}), ("stats", {})]):
                    sock.sendall(encode_message(
                        {"protocol": 1, "op": op, "id": rid, **fields}))
                    reply = decode_line(replies.readline())
                    assert reply["ok"] and reply["id"] == rid, reply
            after_requests = log.read_text().split()[len(boot):]
        finally:
            proc.terminate()
            proc.wait(timeout=60)
            proc.stdout.close()
        assert _banned(boot, [
            f"repro.{p}" for p in ("offline", "edgepart", "parallel",
                                   "memory")],
            exact={"multiprocessing.shared_memory",
                   "repro.service.client"}) == []
        assert [m for m in boot if m.startswith("repro.bench.")] \
            == ["repro.bench.datasets"]
        assert len({m for m in boot if m.startswith("repro")}) <= 45
        assert after_requests == []

    def test_serving_starts_no_engine_or_committer_thread(
            self, graph, config, tmp_path):
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=tmp_path / "state") as svc:
            with ServiceClient(*svc.address) as c:
                c.place_batch(list(range(64)))
                assert c.stats()["engine"]["wal_pipeline"] is True
            names = {thread.name for thread in threading.enumerate()}
        assert not names & {"placement-engine", "placement-wal-commit"}

    def test_grouped_engine_wal_is_refused_on_resume(self, graph, config,
                                                     tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        segment_path(state_dir, 0).write_text(
            '{"s":0,"v":0,"n":null,"p":0,"g":0}\n', encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"seq 0 .*removed grouped engine"):
            PlacementService(graph, config=config, resume_from=state_dir)

    @pytest.mark.parametrize("knob", ["parallelism", "processes",
                                      "max_worker_restarts",
                                      "worker_timeout", "wal_pipeline"])
    def test_engine_knobs_are_refused(self, graph, config, knob):
        with pytest.raises(TypeError, match=knob):
            PlacementService(graph, config=config, **{knob: 2})

    @pytest.mark.parametrize("command,flag", [
        ("serve", "--processes"), ("serve", "--parallelism"),
        ("chaos", "--processes")])
    def test_cli_engine_flags_are_refused(self, command, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "g.adj", flag, "2"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_stats_engine_keeps_every_key(self, client):
        client.place(0)
        assert client.stats()["engine"] == {
            "mode": "sequential", "parallelism": 1, "processes": 1,
            "chunks_scored": 0, "pool_chunks": 0, "m_aligned": True,
            "worker_restarts": 0, "wal_pipeline": False}
