"""Placement-service integration tests (in-process, ephemeral ports)."""

import hashlib
import socket
import threading

import numpy as np
import pytest

import repro
from repro import PartitionConfig, partition_stream
from repro.graph import community_web_graph
from repro.graph.stream import ArrayStream
from repro.service import (
    BackpressureError,
    PlacementService,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import decode_line, encode_message
from repro.service.wal import replay_entries, wal_segments

K = 8
N = 600

#: sha256 of the WAL an id-ordered ``place_batch``-of-128 run of the
#: module's graph/config writes, by engine ``parallelism``: M=1 recorded
#: before the placement loops were collapsed into one kernel, M=8 (the
#: grouped engine, lines stamped with their scoring group) before the
#: grouped engine was moved onto it.
ID_ORDERED_WAL_SHA256 = {
    1: "e012e51c82fcb011857e703b8aa077a2de7908870f7d553d76692b1d53e5b41c",
    8: "44f73f6eb775a9df3c4f36edd8b789b9d71f76446b79695cdf75d0034b883e6c",
}


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

    def test_four_concurrent_clients(self, graph, config, tmp_path):
        state_dir = tmp_path / "state"
        errors = []
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir) as svc:
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

    def _id_ordered_wal_sha256(self, graph, config, state_dir, parallelism):
        with PlacementService.start(graph, config=config,
                                    snapshot_dir=state_dir,
                                    parallelism=parallelism) as svc:
            with ServiceClient(*svc.address) as c:
                for start in range(0, N, 128):
                    c.place_batch(list(range(start, min(N, start + 128))))
            blob = b"".join(p.read_bytes()
                            for p in sorted(state_dir.glob("wal-*")))
        return hashlib.sha256(blob).hexdigest()

    def test_id_ordered_wal_bytes_are_unchanged(self, graph, config,
                                                tmp_path):
        assert self._id_ordered_wal_sha256(
            graph, config, tmp_path / "state", 1) \
            == ID_ORDERED_WAL_SHA256[1]

    def test_grouped_id_ordered_wal_bytes_are_unchanged(self, graph, config,
                                                        tmp_path):
        assert self._id_ordered_wal_sha256(
            graph, config, tmp_path / "state", 8) \
            == ID_ORDERED_WAL_SHA256[8]


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


class TestFailedRequestKeepsItsCommits:
    """A ``place_batch`` whose k-th item raises: items 0..k-1 are
    committed in memory, so they must reach the log and the read view
    although the request itself fails — a retry answers them ``cached``,
    and that ack has to be backed by an fsynced line."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_committed_prefix_is_logged_published_and_resumed(
            self, graph, tmp_path, parallelism):
        # Edge balance, K=2, strict overflow: two 4000-edge rows fill
        # both partitions (capacity 2649 edges), the third item raises.
        config = PartitionConfig(method="spnl", num_partitions=2,
                                 balance="edge", overflow="strict")
        row = [(7 * i) % N for i in range(4000)]
        items = [{"vertex": v, "neighbors": row} for v in range(6)]
        state_dir = tmp_path / "state"
        svc = PlacementService.start(graph, config=config,
                                     snapshot_dir=state_dir,
                                     parallelism=parallelism)
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
        from repro.recovery.chaos import FlakyWAL
        from repro.service import ReadOnlyError

        holder = {}

        def factory(directory, *, start=0, fsync=True):
            holder["wal"] = FlakyWAL(directory, start=start, fsync=fsync)
            return holder["wal"]

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

    def test_acked_survive_an_outage_recovery_crash_cycle(
            self, graph, config, tmp_path):
        from repro.recovery.chaos import FlakyWAL
        from repro.service import ReadOnlyError

        holder = {}

        def factory(directory, *, start=0, fsync=True):
            holder["wal"] = FlakyWAL(directory, start=start, fsync=fsync)
            return holder["wal"]

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
        import time

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
        from repro.recovery.chaos import FlakyWAL
        from repro.resilience.policy import (
            CircuitBreaker,
            CircuitOpenError,
        )
        from repro.service import ReadOnlyError

        holder = {}

        def factory(directory, *, start=0, fsync=True):
            holder["wal"] = FlakyWAL(directory, start=start, fsync=fsync)
            return holder["wal"]

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
